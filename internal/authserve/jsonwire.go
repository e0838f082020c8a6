package authserve

// JSON codec for the verify and challenge hot paths.
//
// Clients send one request shape: a flat object holding exactly the wire
// struct's field names, each once, with plain strings and, for k, a plain
// integer. On that subset JSON has only one reading, so a flat scan
// decodes it as json.Decoder.Decode does by construction, without the
// Decoder's buffers and reflection. Every other body goes to
// json.Decoder itself, so escapes, case-folded keys, unknown fields,
// nulls, nesting depth, number grammar and invalid UTF-8 all behave as
// encoding/json defines them. FuzzJSONRequests holds the pair to
// encoding/json.
//
// Responses follow the same rule: one whose strings are all plain is
// rendered by hand byte-identically to json.Encoder with
// SetIndent("", "  "), and any other goes through json.Encoder. The wire
// golden (wire_test.go) and the equivalence tests in jsonwire_test.go
// hold the hand renderings to that.
//
// The text of a 400 for a malformed body is encoding/json's and is not
// pinned; only status codes are.

import (
	"bytes"
	"encoding/json"
	"strconv"

	"ropuf/internal/bits"
)

// plain reports whether s reads the same inside a JSON string literal in
// both directions: printable ASCII without '"' or '\\', which need
// escapes, and without '<', '>' or '&', which json.Encoder escapes.
func plain[S string | []byte](s S) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// --- decoding ---------------------------------------------------------------

var (
	verifyKeys    = []string{"id", "challenge_id", "response"}
	challengeKeys = []string{"id", "k"}
)

// scanPlain reports whether data is a plain request: one object, JSON
// whitespace aside, whose keys are the names in keys, in any order, each
// exactly once. The value of keys[intKey] is a plain integer,
// -?(0|[1-9][0-9]*); every other value is a plain string. vals[i]
// receives the value of keys[i] without its quotes.
func scanPlain(data []byte, keys []string, intKey int, vals [][]byte) bool {
	i := skipWS(data, 0)
	if i == len(data) || data[i] != '{' {
		return false
	}
	for n := 1; ; n++ {
		key, end, ok := scanString(data, skipWS(data, i+1))
		if !ok {
			return false
		}
		f := 0
		for f < len(keys) && string(key) != keys[f] {
			f++
		}
		if f == len(keys) || vals[f] != nil {
			return false
		}
		i = skipWS(data, end)
		if i == len(data) || data[i] != ':' {
			return false
		}
		i = skipWS(data, i+1)
		if f == intKey {
			vals[f], end, ok = scanInt(data, i)
		} else {
			vals[f], end, ok = scanString(data, i)
		}
		if !ok {
			return false
		}
		i = skipWS(data, end)
		switch {
		case i == len(data):
			return false
		case data[i] == '}':
			return n == len(keys) && skipWS(data, i+1) == len(data)
		case data[i] != ',':
			return false
		}
	}
}

func skipWS(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// scanString scans a plain string literal at data[i:], returning its
// contents and the index past its closing quote. The contents are never
// nil, so scanPlain can tell a key it has seen from one it has not.
func scanString(data []byte, i int) (s []byte, end int, ok bool) {
	if i == len(data) || data[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(data); j++ {
		if data[j] == '"' {
			return data[i+1 : j], j + 1, plain(data[i+1 : j])
		}
	}
	return nil, 0, false
}

// scanInt scans a plain integer at data[i:]. What follows it is the
// caller's to check, so "2e3" ends the scan after "2".
func scanInt(data []byte, i int) (s []byte, end int, ok bool) {
	j := i
	if j < len(data) && data[j] == '-' {
		j++
	}
	digits := j
	for j < len(data) && data[j] >= '0' && data[j] <= '9' {
		j++
	}
	// JSON forbids leading zeros: "02" is a syntax error, not 2.
	return data[i:j], j, j > digits && (data[digits] != '0' || j == digits+1)
}

// parseVerifyRequest decodes a POST /v1/verify body. id and challengeID
// are copies (the store may keep them as map keys after the body buffer
// is reused); the response bits go straight into resp, which the caller
// has Reset. A bits syntax error is returned as bitsErr so that a JSON
// error, returned as err, wins over it.
func parseVerifyRequest(data []byte, resp *bits.Stream) (id, challengeID string, bitsErr, err error) {
	var v [3][]byte
	if scanPlain(data, verifyKeys, -1, v[:]) {
		return string(v[0]), string(v[1]), resp.AppendChars(v[2]), nil
	}
	var req VerifyRequest
	if err = json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
		return "", "", nil, err
	}
	return req.ID, req.ChallengeID, resp.AppendChars([]byte(req.Response)), nil
}

// parseChallengeRequest decodes a POST /v1/challenge body.
func parseChallengeRequest(data []byte) (id string, k int, err error) {
	var v [2][]byte
	if scanPlain(data, challengeKeys, 1, v[:]) {
		// An integer out of int's range is not plain: encoding/json
		// rejects it, below.
		if k, err = strconv.Atoi(string(v[1])); err == nil {
			return string(v[0]), k, nil
		}
	}
	var req ChallengeRequest
	if err = json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
		return "", 0, err
	}
	return req.ID, req.K, nil
}

// --- encoding ---------------------------------------------------------------

// appendIndented appends v as json.NewEncoder + SetIndent("", "  ") +
// Encode writes it, trailing newline included.
func appendIndented(dst []byte, v any) []byte {
	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the wire structs hold nothing Encode can refuse
	return buf.Bytes()
}

// appendVerifyResponse renders VerifyResponse exactly as
// json.Encoder.SetIndent("", "  ").Encode does, trailing newline included.
func appendVerifyResponse(dst []byte, v VerifyResponse) []byte {
	dst = append(dst, "{\n  \"ok\": "...)
	if v.OK {
		dst = append(dst, "true"...)
	} else {
		dst = append(dst, "false"...)
	}
	dst = append(dst, ",\n  \"distance\": "...)
	dst = strconv.AppendInt(dst, int64(v.Distance), 10)
	dst = append(dst, ",\n  \"limit\": "...)
	dst = strconv.AppendInt(dst, int64(v.Limit), 10)
	dst = append(dst, ",\n  \"bits\": "...)
	dst = strconv.AppendInt(dst, int64(v.Bits), 10)
	return append(dst, "\n}\n"...)
}

// appendChallengeResponse renders ChallengeResponse identically to the
// indented encoding/json output, including the one-element-per-line
// pairs array and the nil-slice → null / empty-slice → [] distinction.
func appendChallengeResponse(dst []byte, v ChallengeResponse) []byte {
	if !plain(v.ChallengeID) || !plain(v.ID) {
		return appendIndented(dst, v)
	}
	dst = append(dst, "{\n  \"challenge_id\": \""...)
	dst = append(dst, v.ChallengeID...)
	dst = append(dst, "\",\n  \"id\": \""...)
	dst = append(dst, v.ID...)
	dst = append(dst, "\",\n  \"pairs\": "...)
	switch {
	case v.Pairs == nil:
		dst = append(dst, "null"...)
	case len(v.Pairs) == 0:
		dst = append(dst, "[]"...)
	default:
		dst = append(dst, "[\n"...)
		for i, p := range v.Pairs {
			dst = append(dst, "    "...)
			dst = strconv.AppendInt(dst, int64(p), 10)
			if i < len(v.Pairs)-1 {
				dst = append(dst, ',')
			}
			dst = append(dst, '\n')
		}
		dst = append(dst, "  ]"...)
	}
	dst = append(dst, ",\n  \"fresh\": "...)
	dst = strconv.AppendInt(dst, int64(v.Fresh), 10)
	return append(dst, "\n}\n"...)
}

// appendErrorResponse renders ErrorResponse identically to the indented
// encoding/json output.
func appendErrorResponse(dst []byte, msg string) []byte {
	if !plain(msg) {
		return appendIndented(dst, ErrorResponse{Error: msg})
	}
	dst = append(dst, "{\n  \"error\": \""...)
	dst = append(dst, msg...)
	return append(dst, "\"\n}\n"...)
}
