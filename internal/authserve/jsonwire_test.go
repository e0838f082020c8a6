package authserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ropuf/internal/bits"
)

// encodeIndented is the generic path the hand encoder must match byte for
// byte: json.Encoder with two-space indent (HTML escaping on, trailing
// newline included).
func encodeIndented(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return buf.Bytes()
}

// nastyStrings exercises every escaping rule: the HTML trio, the
// two-character escapes, other control bytes, U+2028/U+2029, multibyte
// runes, and invalid UTF-8.
var nastyStrings = []string{
	"",
	"plain",
	`quote " backslash \ slash /`,
	"tabs\tand\nnewlines\rand\x00nulls\x1f",
	"<script>alert('x')&amp;</script>",
	"line\u2028and\u2029separators",
	"unicode: héllo 世界 🎉",
	"invalid utf8: \xff\xfe mid\xc3string",
	"\u007f del is not escaped",
	strings.Repeat("long-", 100) + "<end>",
}

func TestAppendErrorResponseMatchesEncodingJSON(t *testing.T) {
	for _, s := range nastyStrings {
		got := appendErrorResponse(nil, s)
		want := encodeIndented(t, ErrorResponse{Error: s})
		if !bytes.Equal(got, want) {
			t.Errorf("error body for %q:\n got %q\nwant %q", s, got, want)
		}
	}
}

func TestAppendVerifyResponseMatchesEncodingJSON(t *testing.T) {
	cases := []VerifyResponse{
		{},
		{OK: true, Distance: 0, Limit: 12, Bits: 128},
		{OK: false, Distance: 64, Limit: 12, Bits: 128},
		{OK: true, Distance: -3, Limit: -1, Bits: 0},
		{Distance: 1 << 40, Limit: 1 << 50, Bits: 1<<31 - 1},
	}
	for _, v := range cases {
		got := appendVerifyResponse(nil, v)
		want := encodeIndented(t, v)
		if !bytes.Equal(got, want) {
			t.Errorf("verify body for %+v:\n got %q\nwant %q", v, got, want)
		}
	}
}

func TestAppendChallengeResponseMatchesEncodingJSON(t *testing.T) {
	cases := []ChallengeResponse{
		{},
		{ChallengeID: "abc123", ID: "dev-0001", Pairs: []int{5}, Fresh: 1},
		{ChallengeID: "n<>&\u2028", ID: "tabs\there", Pairs: []int{0, 1, 2, 99, -4}, Fresh: 12},
		{ChallengeID: "empty-but-not-nil", ID: "x", Pairs: []int{}, Fresh: 0},
		{ChallengeID: "nil-pairs", ID: "y", Pairs: nil, Fresh: 3},
	}
	for _, v := range cases {
		got := appendChallengeResponse(nil, v)
		want := encodeIndented(t, v)
		if !bytes.Equal(got, want) {
			t.Errorf("challenge body for %+v:\n got %q\nwant %q", v, got, want)
		}
	}
}

// decodeRef mirrors the server's old generic decode: json.Decoder.Decode
// of one value (trailing data ignored).
func decodeRef(body string, v any) error {
	return json.NewDecoder(strings.NewReader(body)).Decode(v)
}

// verifyDecodeCases covers accept/reject parity for the verify request
// parser: the plain shape, each way a body leaves it, escapes,
// duplicates, unknown fields, nulls, syntax errors and invalid UTF-8.
var verifyDecodeCases = []string{
	`{"id":"dev-1","challenge_id":"c1","response":"0110"}`,
	`{"response":"0110","id":"dev-1","challenge_id":"c1"}`,             // plain in any key order
	`{"id":"dev-1","challenge_id":"c1","response":"01","id":"dev-2"}`,  // bail-out: duplicate key
	`{"id":"dev<1>","challenge_id":"c1","response":"01"}`,              // bail-out: < and > in a string
	`{"id":"dev-1","challenge_id":"c&1","response":"01"}`,              // bail-out: & in a string
	`{"id":"dev-1","challenge_id":"c1"}`,                               // bail-out: a key missing
	`{"id":"dev-1","challenge_id":"c1","response":"01"}x`,              // bail-out: trailing data
	"{\"id\":\"dev\xff\",\"challenge_id\":\"c1\",\"response\":\"01\"}", // invalid UTF-8
	"{\"id\":\"\xc3\"}", // truncated UTF-8 sequence
	"\r\n\t {\"id\" : \"dev-1\" , \"challenge_id\" : \"c1\" , \"response\" : \"01\" } \n trailing garbage ignored",
	`{}`,
	`null`,
	`{"id":null,"challenge_id":null,"response":null}`,
	`{"response":"01","response":null}`,              // null is a no-op, keeps "01"
	`{"response":"01","response":"10"}`,              // duplicate: last wins
	`{"id":"a","id":"b"}`,                            // duplicate string
	`{"unknown":123,"id":"x"}`,                       // unknown number
	`{"unknown":{"nested":[1,"two",null]},"id":"x"}`, // unknown composite
	`{"unknown":[[],{},[{"a":[false]}]]}`,
	`{"id":"esc\u0041\n\t\"\\\/"}`,
	`{"id":"\ud83c\udf89"}`,     // surrogate pair
	`{"id":"\ud800"}`,           // lone high surrogate -> U+FFFD
	`{"id":"\udc00 low alone"}`, // lone low surrogate
	`{"id":"\ud800\ud800"}`,     // high followed by high
	`{"id":"\ud800x"}`,          // high followed by normal char
	`{"id":"héllo 世界"}`,         // raw multibyte passthrough
	`{"response":"01x"}`,        // bits error, JSON fine
	`{"response":""}`,
	``,                               // empty body: EOF both ways
	`   `,                            // whitespace only
	`[1,2]`,                          // wrong top-level type
	`"str"`,                          // wrong top-level type
	`true`,                           // wrong top-level type
	`{`,                              // truncated
	`{"id"`,                          // truncated at colon
	`{"id":}`,                        // missing value
	`{"id":"a"`,                      // truncated before close
	`{"id":"a",}`,                    // trailing comma
	`{"id":"a" "challenge_id":"b"}`,  // missing comma
	`{"id":'a'}`,                     // single quotes
	`{"id":"raw` + "\x01" + `ctrl"}`, // raw control byte in string
	`{"id":"bad\escape"}`,            // invalid escape
	`{"id":"\u12"}`,                  // truncated hex escape
	`{"id":"\uZZZZ"}`,                // invalid hex digits
	`{"id":"unterminated`,
	`{"id":123}`,   // number into string field
	`{"id":true}`,  // bool into string field
	`{"id":["a"]}`, // array into string field
	`{nonsense}`,
	`{"ID":"dev-upper","Challenge_ID":"c","RESPONSE":"01"}`, // keys fold case
	`{"reSponse":"0"}`,
	`{"id":"x","x":01}`, // leading zero in a skipped number
	`{"x":-01}`,
	`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,   // at the depth limit
	`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`, // one past it
}

func TestParseVerifyRequestMatchesEncodingJSON(t *testing.T) {
	for _, body := range verifyDecodeCases {
		t.Run(fmt.Sprintf("%.40q", body), func(t *testing.T) {
			checkVerifyParity(t, []byte(body))
		})
	}
}

// checkVerifyParity holds parseVerifyRequest to encoding/json: both accept
// or both reject body, and when they accept they decode the same fields
// and bits.
func checkVerifyParity(t *testing.T, body []byte) {
	t.Helper()
	var want VerifyRequest
	wantErr := decodeRef(string(body), &want)

	var stream bits.Stream
	id, challengeID, bitsErr, gotErr := parseVerifyRequest(body, &stream)

	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("error parity for %q: hand parser err=%v, encoding/json err=%v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if id != want.ID || challengeID != want.ChallengeID {
		t.Fatalf("fields for %q: got id=%q challenge_id=%q, want id=%q challenge_id=%q",
			body, id, challengeID, want.ID, want.ChallengeID)
	}
	// The reference path parses bits from the decoded string.
	wantStream, wantBitsErr := bits.FromString(want.Response)
	if (bitsErr != nil) != (wantBitsErr != nil) {
		t.Fatalf("bits error parity for %q: hand=%v reference=%v", body, bitsErr, wantBitsErr)
	}
	if bitsErr == nil && !stream.Equal(wantStream) {
		t.Fatalf("bits for %q: got %q want %q", body, stream.String(), wantStream.String())
	}
}

var challengeDecodeCases = []string{
	`{"id":"dev-1","k":2}`,
	" {\"k\" : -0 ,\n\t\"id\" : \"dev-1\"}\r\n", // plain with whitespace and -0
	`{"id":"dev-1","k":2,"k":3}`,                // bail-out: duplicate key
	`{"id":"<dev>&1","k":2}`,                    // bail-out: <, > and & in a string
	`{"id":"dev-1","k":2e0}`,                    // bail-out: k with an exponent
	`{"id":"dev-1","k":1E2}`,                    // bail-out: k with an exponent
	"{\"id\":\"dev\xfe\",\"k\":2}",              // invalid UTF-8
	`{"id":"dev-1","k":0}`,
	`{"id":"dev-1","k":-7}`,
	`{"k":2,"id":"dev-1","k":5}`, // duplicate int: last wins
	`{"k":null}`,
	`{"k":9223372036854775807}`,
	`{"k":9223372036854775808}`,  // overflows int64
	`{"k":-9223372036854775809}`, // underflows int64
	`{"k":2.5}`,                  // fraction into int field
	`{"k":2.0}`,                  // still rejected: ParseInt sees "2.0"
	`{"k":2e3}`,                  // exponent into int field
	`{"k":02}`,                   // leading zero is a syntax error
	`{"k":-}`,                    // bare minus
	`{"k":"2"}`,                  // string into int field
	`{"k":+2}`,                   // leading plus is invalid JSON
	`{"unknown":-1.5e-7,"k":3}`,  // unknown float skipped
	`{"unknown":1.}`,             // bare decimal point in skipped number
	`{"unknown":1e}`,             // empty exponent in skipped number
	`{"id":"x"}`,
	`null`,
	`{"ID":"dev-upper","K":2}`,       // keys fold case
	`{"id":"x","\u212a":3}`,          // KELVIN SIGN folds to k
	`{"id":"dev-0000","k":2,"x":01}`, // leading zero in a skipped number
}

func TestParseChallengeRequestMatchesEncodingJSON(t *testing.T) {
	for _, body := range challengeDecodeCases {
		t.Run(fmt.Sprintf("%.40q", body), func(t *testing.T) {
			checkChallengeParity(t, []byte(body))
		})
	}
}

// checkChallengeParity is checkVerifyParity for parseChallengeRequest.
func checkChallengeParity(t *testing.T, body []byte) {
	t.Helper()
	var want ChallengeRequest
	wantErr := decodeRef(string(body), &want)

	id, k, gotErr := parseChallengeRequest(body)

	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("error parity for %q: hand parser err=%v, encoding/json err=%v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if id != want.ID || k != want.K {
		t.Fatalf("fields for %q: got id=%q k=%d, want id=%q k=%d", body, id, k, want.ID, want.K)
	}
}

// FuzzJSONRequests holds both request parsers to encoding/json on
// arbitrary bodies, seeded from the two parity tables.
func FuzzJSONRequests(f *testing.F) {
	for _, body := range verifyDecodeCases {
		f.Add([]byte(body))
	}
	for _, body := range challengeDecodeCases {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkVerifyParity(t, body)
		checkChallengeParity(t, body)
	})
}

// TestParsedStringsDoNotAliasInput pins the correctness property the
// pooled buffers depend on: identity strings returned by the parsers must
// be copies, because the store retains them (map keys) long after the
// request buffer is reused.
func TestParsedStringsDoNotAliasInput(t *testing.T) {
	body := []byte(`{"id":"device-alias-check","challenge_id":"nonce-alias-check","response":"01"}`)
	var stream bits.Stream
	id, challengeID, bitsErr, err := parseVerifyRequest(body, &stream)
	if err != nil || bitsErr != nil {
		t.Fatalf("parse: %v / %v", err, bitsErr)
	}
	for i := range body {
		body[i] = 'X'
	}
	if id != "device-alias-check" {
		t.Fatalf("id aliases the request buffer: %q", id)
	}
	if challengeID != "nonce-alias-check" {
		t.Fatalf("challenge_id aliases the request buffer: %q", challengeID)
	}
}
