package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// CSV layout: one row per (board, condition, RO) measurement with header
//
//	board,ro,x,y,millivolts,decicelsius,freq_mhz
//
// Rows are written board-major, condition-major, RO-minor, so files diff
// cleanly across generator versions.

var csvHeader = []string{"board", "ro", "x", "y", "millivolts", "decicelsius", "freq_mhz"}

// CSVWriter streams boards to a single CSV file one board at a time — the
// unsharded export (cmd/datasetgen without -shards).
type CSVWriter struct {
	cw   *csv.Writer
	rows int64
}

// NewCSVWriter writes the header row and returns a board-at-a-time writer.
func NewCSVWriter(w io.Writer) (*CSVWriter, error) {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return nil, fmt.Errorf("dataset: write header: %w", err)
	}
	return &CSVWriter{cw: cw}, nil
}

// WriteBoard appends one board's rows.
func (w *CSVWriter) WriteBoard(b *Board) error {
	rows, err := writeCSVBoard(w.cw, b)
	w.rows += rows
	return err
}

// Rows returns the data rows written so far (excluding the header).
func (w *CSVWriter) Rows() int64 { return w.rows }

// Flush flushes buffered rows and reports any accumulated write error.
func (w *CSVWriter) Flush() error {
	w.cw.Flush()
	return w.cw.Error()
}

// writeCSVBoard emits one board's rows (condition-major, RO-minor) and
// returns the row count.
func writeCSVBoard(cw *csv.Writer, b *Board) (int64, error) {
	var rows int64
	xs, ys := b.Positions()
	for _, cond := range b.Conditions() {
		freqs := b.Freq[cond]
		if len(freqs) != len(xs) {
			return rows, fmt.Errorf("dataset: board %d condition %v has %d ROs, its %dx%d grid %d",
				b.ID, cond, len(freqs), b.GridW, b.GridH, len(xs))
		}
		for i, f := range freqs {
			rec := []string{
				strconv.Itoa(b.ID),
				strconv.Itoa(i),
				strconv.Itoa(xs[i]),
				strconv.Itoa(ys[i]),
				strconv.Itoa(cond.MilliVolts),
				strconv.Itoa(cond.DeciCelsius),
				strconv.FormatFloat(f, 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return rows, fmt.Errorf("dataset: write board %d: %w", b.ID, err)
			}
			rows++
		}
	}
	return rows, nil
}
