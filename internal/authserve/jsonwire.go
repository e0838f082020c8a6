package authserve

// Hand-rolled JSON codec for the verify and challenge hot paths.
//
// The generic encoding/json path costs a Decoder, reflection walks, and
// per-field allocations on every request; this file replaces it for the
// two wire shapes the steady-state traffic is made of. The contract is
// strict byte-compatibility in both directions:
//
//   - Encoding is byte-identical to json.NewEncoder + SetIndent("", "  ")
//     + Encode of the wire structs: two-space indent, HTML-escaped
//     strings (<, >, & as <, >, &), a trailing newline.
//     wire_test.go's golden file and the equivalence tests in
//     jsonwire_test.go hold it to that.
//
//   - Decoding mirrors json.Decoder.Decode into the request structs:
//     keys match field names case-insensitively under bytes.EqualFold
//     (encoding/json's fold rule), unknown fields are skipped but still
//     held to the JSON grammar (no leading zero in a number), duplicate
//     keys are last-wins, a top-level null is accepted and leaves the
//     struct zeroed, trailing data after the first value is ignored, raw
//     control characters in strings are rejected, and \uXXXX escapes
//     (surrogate pairs included) are decoded. The one deliberate
//     divergence: invalid UTF-8 inside a string is passed through rather
//     than replaced with U+FFFD — the bytes only ever name a device that
//     cannot exist, and the error text of a 400 is not part of the wire
//     contract. FuzzJSONRequests holds the parser to encoding/json.
//
// Errors are reported with enough position context to debug a client,
// but their exact text is NOT pinned — only status codes are.

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"ropuf/internal/bits"
)

// --- decoding ---------------------------------------------------------------

var errJSONEOF = errors.New("unexpected end of JSON input")

type jsonParser struct {
	data  []byte
	pos   int
	depth int // objects and arrays open around pos
	// arena accumulates unescaped string bytes; it only ever grows
	// during one parse, so earlier views into it stay valid.
	arena []byte
}

func (p *jsonParser) errAt(format string, args ...any) error {
	return fmt.Errorf("byte %d: %s", p.pos, fmt.Sprintf(format, args...))
}

func (p *jsonParser) skipWS() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// parseObject drives one top-level object (or null): field is called
// with each key positioned at its value and must consume it. Trailing
// bytes after the value are ignored — json.Decoder.Decode semantics.
func (p *jsonParser) parseObject(field func(key []byte) error) error {
	p.skipWS()
	if p.pos >= len(p.data) {
		return errJSONEOF
	}
	if p.data[p.pos] == 'n' { // null leaves the struct zeroed
		return p.parseLiteral("null")
	}
	if p.data[p.pos] != '{' {
		return p.errAt("expected object, found %q", p.data[p.pos])
	}
	p.pos++
	p.depth = 1
	p.skipWS()
	if p.pos < len(p.data) && p.data[p.pos] == '}' {
		p.pos++
		return nil
	}
	for {
		p.skipWS()
		key, err := p.parseString()
		if err != nil {
			return err
		}
		p.skipWS()
		if p.pos >= len(p.data) || p.data[p.pos] != ':' {
			return p.errAt("expected ':' after object key")
		}
		p.pos++
		p.skipWS()
		if err := field(key); err != nil {
			return err
		}
		p.skipWS()
		if p.pos >= len(p.data) {
			return errJSONEOF
		}
		switch p.data[p.pos] {
		case ',':
			p.pos++
		case '}':
			p.pos++
			return nil
		default:
			return p.errAt("expected ',' or '}' in object, found %q", p.data[p.pos])
		}
	}
}

func (p *jsonParser) parseLiteral(lit string) error {
	if len(p.data)-p.pos < len(lit) || string(p.data[p.pos:p.pos+len(lit)]) != lit {
		return p.errAt("invalid literal")
	}
	p.pos += len(lit)
	return nil
}

// parseString decodes one JSON string. The fast path (no escapes)
// returns a view into the input; escaped strings are unescaped into the
// arena. Either way the caller must copy before the bytes outlive the
// request (string(...) does).
func (p *jsonParser) parseString() ([]byte, error) {
	if p.pos >= len(p.data) {
		return nil, errJSONEOF
	}
	if p.data[p.pos] != '"' {
		return nil, p.errAt("expected string, found %q", p.data[p.pos])
	}
	p.pos++
	start := p.pos
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		if c == '"' {
			s := p.data[start:p.pos]
			p.pos++
			return s, nil
		}
		if c == '\\' {
			return p.parseStringSlow(start)
		}
		if c < 0x20 {
			return nil, p.errAt("raw control character %#x in string literal", c)
		}
		p.pos++
	}
	return nil, errJSONEOF
}

// parseStringSlow continues a string from its first backslash,
// unescaping into the arena.
func (p *jsonParser) parseStringSlow(start int) ([]byte, error) {
	arenaStart := len(p.arena)
	p.arena = append(p.arena, p.data[start:p.pos]...)
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			return p.arena[arenaStart:len(p.arena):len(p.arena)], nil
		case c == '\\':
			p.pos++
			if p.pos >= len(p.data) {
				return nil, errJSONEOF
			}
			switch e := p.data[p.pos]; e {
			case '"', '\\', '/':
				p.arena = append(p.arena, e)
				p.pos++
			case 'b':
				p.arena = append(p.arena, '\b')
				p.pos++
			case 'f':
				p.arena = append(p.arena, '\f')
				p.pos++
			case 'n':
				p.arena = append(p.arena, '\n')
				p.pos++
			case 'r':
				p.arena = append(p.arena, '\r')
				p.pos++
			case 't':
				p.arena = append(p.arena, '\t')
				p.pos++
			case 'u':
				p.pos++
				r, err := p.parseHexRune()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(r) {
					// A high surrogate must be completed by a \uXXXX low
					// half; any other continuation decodes the lone half
					// to U+FFFD without consuming it, exactly as
					// encoding/json does.
					dec := utf8.RuneError
					if p.pos+1 < len(p.data) && p.data[p.pos] == '\\' && p.data[p.pos+1] == 'u' {
						save := p.pos
						p.pos += 2
						lo, err := p.parseHexRune()
						if err != nil {
							return nil, err
						}
						if d := utf16.DecodeRune(r, lo); d != utf8.RuneError {
							dec = d
						} else {
							p.pos = save // lone surrogate; re-scan the next escape normally
						}
					}
					p.arena = utf8.AppendRune(p.arena, dec)
				} else {
					p.arena = utf8.AppendRune(p.arena, r)
				}
			default:
				return nil, p.errAt("invalid escape character %q in string", e)
			}
		case c < 0x20:
			return nil, p.errAt("raw control character %#x in string literal", c)
		default:
			p.arena = append(p.arena, c)
			p.pos++
		}
	}
	return nil, errJSONEOF
}

// parseHexRune consumes the 4 hex digits of a \u escape (the "\u" is
// already consumed).
func (p *jsonParser) parseHexRune() (rune, error) {
	if len(p.data)-p.pos < 4 {
		return 0, errJSONEOF
	}
	var r rune
	for i := 0; i < 4; i++ {
		c := p.data[p.pos+i]
		switch {
		case c >= '0' && c <= '9':
			r = r<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			r = r<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			r = r<<4 | rune(c-'A'+10)
		default:
			return 0, p.errAt("invalid hex digit %q in \\u escape", c)
		}
	}
	p.pos += 4
	return r, nil
}

// parseInt decodes a JSON number into an int, rejecting fractions and
// exponents the way encoding/json rejects them for integer fields. The
// JSON number grammar is enforced first ("01" is a syntax error, not 1).
func (p *jsonParser) parseInt() (int, error) {
	start := p.pos
	if err := p.skipIntPart(); err != nil {
		return 0, err
	}
	if p.pos < len(p.data) {
		switch p.data[p.pos] {
		case '.', 'e', 'E':
			return 0, p.errAt("number %s... is not an integer", p.data[start:p.pos])
		}
	}
	n, err := strconv.ParseInt(string(p.data[start:p.pos]), 10, 64)
	if err != nil {
		return 0, p.errAt("number out of range")
	}
	return int(n), nil
}

// maxNestingDepth is encoding/json's limit on objects and arrays open at
// once, the top-level object included. It also bounds skipValue's
// recursion: a 16 MiB body of '[' would otherwise overflow the goroutine
// stack, which kills the process.
const maxNestingDepth = 10000

// descend enters one more object or array.
func (p *jsonParser) descend() error {
	p.depth++
	if p.depth > maxNestingDepth {
		return p.errAt("exceeded max depth")
	}
	return nil
}

// skipValue consumes any JSON value — the unknown-field path.
func (p *jsonParser) skipValue() error {
	p.skipWS()
	if p.pos >= len(p.data) {
		return errJSONEOF
	}
	switch c := p.data[p.pos]; {
	case c == '"':
		_, err := p.parseString()
		return err
	case c == 't':
		return p.parseLiteral("true")
	case c == 'f':
		return p.parseLiteral("false")
	case c == 'n':
		return p.parseLiteral("null")
	case c == '-' || (c >= '0' && c <= '9'):
		return p.skipNumber()
	case c == '{':
		if err := p.descend(); err != nil {
			return err
		}
		p.pos++
		p.skipWS()
		if p.pos < len(p.data) && p.data[p.pos] == '}' {
			p.pos++
			p.depth--
			return nil
		}
		for {
			p.skipWS()
			if _, err := p.parseString(); err != nil {
				return err
			}
			p.skipWS()
			if p.pos >= len(p.data) || p.data[p.pos] != ':' {
				return p.errAt("expected ':' after object key")
			}
			p.pos++
			if err := p.skipValue(); err != nil {
				return err
			}
			p.skipWS()
			if p.pos >= len(p.data) {
				return errJSONEOF
			}
			switch p.data[p.pos] {
			case ',':
				p.pos++
			case '}':
				p.pos++
				p.depth--
				return nil
			default:
				return p.errAt("expected ',' or '}' in object")
			}
		}
	case c == '[':
		if err := p.descend(); err != nil {
			return err
		}
		p.pos++
		p.skipWS()
		if p.pos < len(p.data) && p.data[p.pos] == ']' {
			p.pos++
			p.depth--
			return nil
		}
		for {
			if err := p.skipValue(); err != nil {
				return err
			}
			p.skipWS()
			if p.pos >= len(p.data) {
				return errJSONEOF
			}
			switch p.data[p.pos] {
			case ',':
				p.pos++
			case ']':
				p.pos++
				p.depth--
				return nil
			default:
				return p.errAt("expected ',' or ']' in array")
			}
		}
	default:
		return p.errAt("unexpected character %q", c)
	}
}

// skipIntPart consumes a number's sign and integer digits, rejecting a
// multi-digit integer part that starts with 0.
func (p *jsonParser) skipIntPart() error {
	if p.pos < len(p.data) && p.data[p.pos] == '-' {
		p.pos++
	}
	digits := 0
	for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
		p.pos++
		digits++
	}
	if digits == 0 {
		return p.errAt("expected number")
	}
	if digits > 1 && p.data[p.pos-digits] == '0' {
		return p.errAt("number has a leading zero")
	}
	return nil
}

func (p *jsonParser) skipNumber() error {
	if err := p.skipIntPart(); err != nil {
		return err
	}
	if p.pos < len(p.data) && p.data[p.pos] == '.' {
		p.pos++
		frac := 0
		for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
			p.pos++
			frac++
		}
		if frac == 0 {
			return p.errAt("number has a bare decimal point")
		}
	}
	if p.pos < len(p.data) && (p.data[p.pos] == 'e' || p.data[p.pos] == 'E') {
		p.pos++
		if p.pos < len(p.data) && (p.data[p.pos] == '+' || p.data[p.pos] == '-') {
			p.pos++
		}
		exp := 0
		for p.pos < len(p.data) && p.data[p.pos] >= '0' && p.data[p.pos] <= '9' {
			p.pos++
			exp++
		}
		if exp == 0 {
			return p.errAt("number has an empty exponent")
		}
	}
	return nil
}

// keyIs reports whether an object key names a field, under the
// case-insensitive match encoding/json uses for struct fields.
func keyIs(key []byte, field string) bool {
	return bytes.EqualFold(key, []byte(field))
}

// maybeNull consumes a null value if one is next, mirroring
// encoding/json's rule that null into a typed field is a no-op.
func (p *jsonParser) maybeNull() (bool, error) {
	if p.pos < len(p.data) && p.data[p.pos] == 'n' {
		return true, p.parseLiteral("null")
	}
	return false, nil
}

// parseVerifyRequest decodes a POST /v1/verify body. id and challengeID
// are copied out of the buffer (they may outlive the request in store
// maps); the response bits go straight into resp (Reset first), skipping
// the intermediate string entirely. A bits syntax error is returned as
// bitsErr so the caller can keep the historical error ordering: any JSON
// syntax error wins, then the bits complaint.
func parseVerifyRequest(data []byte, arena []byte, resp *bits.Stream) (id, challengeID string, bitsErr error, arenaOut []byte, err error) {
	p := jsonParser{data: data, arena: arena[:0]}
	err = p.parseObject(func(key []byte) error {
		if null, err := p.maybeNull(); null || err != nil {
			return err
		}
		switch {
		case keyIs(key, "id"):
			v, err := p.parseString()
			if err != nil {
				return err
			}
			id = string(v)
		case keyIs(key, "challenge_id"):
			v, err := p.parseString()
			if err != nil {
				return err
			}
			challengeID = string(v)
		case keyIs(key, "response"):
			v, err := p.parseString()
			if err != nil {
				return err
			}
			resp.Reset() // duplicate keys: last one wins
			bitsErr = resp.AppendChars(v)
		default:
			return p.skipValue()
		}
		return nil
	})
	return id, challengeID, bitsErr, p.arena, err
}

// parseChallengeRequest decodes a POST /v1/challenge body.
func parseChallengeRequest(data []byte, arena []byte) (id string, k int, arenaOut []byte, err error) {
	p := jsonParser{data: data, arena: arena[:0]}
	err = p.parseObject(func(key []byte) error {
		if null, err := p.maybeNull(); null || err != nil {
			return err
		}
		switch {
		case keyIs(key, "id"):
			v, err := p.parseString()
			if err != nil {
				return err
			}
			id = string(v)
		case keyIs(key, "k"):
			v, err := p.parseInt()
			if err != nil {
				return err
			}
			k = v
		default:
			return p.skipValue()
		}
		return nil
	})
	return id, k, p.arena, err
}

// --- encoding ---------------------------------------------------------------

// jsonSafe marks the ASCII bytes encoding/json emits verbatim inside a
// string with HTML escaping on: printable, not ", \, <, >, &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range []byte{'"', '\\', '<', '>', '&'} {
		t[c] = false
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal with exactly
// encoding/json's escaping rules (HTML escaping on): ", \, and the
// control whitespace trio get two-character escapes, other control
// bytes and <, >, & get \u00xx, U+2028/U+2029 get \u202x, and invalid
// UTF-8 becomes U+FFFD.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"':
				dst = append(dst, '\\', '"')
			case '\\':
				dst = append(dst, '\\', '\\')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default: // other control bytes and the HTML trio
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
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
	dst = append(dst, "{\n  \"challenge_id\": "...)
	dst = appendJSONString(dst, v.ChallengeID)
	dst = append(dst, ",\n  \"id\": "...)
	dst = appendJSONString(dst, v.ID)
	dst = append(dst, ",\n  \"pairs\": "...)
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
	dst = append(dst, "{\n  \"error\": "...)
	dst = appendJSONString(dst, msg)
	return append(dst, "\n}\n"...)
}
