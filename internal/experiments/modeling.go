package experiments

import (
	"fmt"
	"strings"

	"ropuf/internal/attack"
	"ropuf/internal/rngx"
	"ropuf/internal/silicon"
)

// modeling quantifies the §II warning against *reconfigurable* use of the
// architecture: if an attacker may query a pair with chosen configuration
// vectors (instead of the paper's fix-after-enrollment discipline), a
// perceptron learns the pair's linear delay structure from a handful of
// CRPs and predicts unseen responses almost perfectly.
func (r *Runner) modeling() (string, error) {
	boards, err := r.InHouse()
	if err != nil {
		return "", err
	}
	var b strings.Builder

	// Ground truth from the first board's first ring pair.
	pairs, err := boards[0].MeasurePairs(silicon.Nominal)
	if err != nil {
		return "", err
	}
	const evalCRPs = 2000
	rng := rngx.New(0x4d4f44454c) // "MODEL"
	trainSizes := []int{8, 16, 32, 64, 128, 256, 512}

	fmt.Fprintf(&b, "Perceptron accuracy on %d held-out CRPs (mean over %d pairs):\n\n", evalCRPs, len(pairs[:8]))
	fmt.Fprintf(&b, "%16s %12s\n", "training CRPs", "accuracy")
	finalAcc := 0.0
	for _, train := range trainSizes {
		var acc float64
		count := 0
		for _, p := range pairs[:8] {
			crps, err := attack.GenerateCRPs(p.Alpha, p.Beta, train+evalCRPs, rng.Split())
			if err != nil {
				return "", err
			}
			model, err := attack.NewLinearModel(len(p.Alpha))
			if err != nil {
				return "", err
			}
			if _, err := model.Train(crps[:train], 200); err != nil {
				return "", err
			}
			a, err := model.Accuracy(crps[train:])
			if err != nil {
				return "", err
			}
			acc += a
			count++
		}
		acc /= float64(count)
		fmt.Fprintf(&b, "%16d %11.1f%%\n", train, 100*acc)
		finalAcc = acc
	}
	fmt.Fprintf(&b, "\nWith the paper's discipline (configuration fixed post-enrollment) the\nattacker sees exactly ONE configuration per pair and the linear system is\nhopelessly underdetermined; exposing free reconfiguration hands over the\nwhole delay model (%.1f%% prediction accuracy above).\n", 100*finalAcc)
	return b.String(), nil
}
