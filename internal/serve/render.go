package serve

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"unicode/utf8"

	"efficsense/internal/core"
	"efficsense/internal/power"
)

// This file renders /v1/evaluate replies by hand. The bytes are exactly
// what json.Encoder with SetIndent("", "  ") writes for ResultJSON and
// EvaluateBatchResponse (FuzzResultJSON is the referee), so the
// endpoint's hot path needs neither reflection nor the intermediate
// ResultJSON with its power map. Every other reply, job statuses'
// result rows included, still goes through writeJSON.

// appendEvaluateReply appends the single-point reply for r: its row at
// the top level, then the encoder's closing newline.
func appendEvaluateReply(dst []byte, r core.Result, cached bool) ([]byte, error) {
	dst, err := appendResultRow(dst, r, cached, 0)
	if err != nil {
		return nil, err
	}
	return append(dst, '\n'), nil
}

// appendEvaluateBatchReply appends the EvaluateBatchResponse for rs (one
// row per point, cached[i] flagging rs[i]), newline included.
func appendEvaluateBatchReply(dst []byte, rs []core.Result, cached []bool) ([]byte, error) {
	errs := 0
	for _, r := range rs {
		if r.Err != nil {
			errs++
		}
	}
	dst = append(dst, '{')
	dst = appendKey(dst, 1, "partial", true)
	dst = strconv.AppendBool(dst, errs > 0)
	dst = appendKey(dst, 1, "count", false)
	dst = strconv.AppendInt(dst, int64(len(rs)), 10)
	dst = appendKey(dst, 1, "errors", false)
	dst = strconv.AppendInt(dst, int64(errs), 10)
	dst = appendKey(dst, 1, "results", false)
	dst = append(dst, '[')
	var err error
	for i, r := range rs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendIndent(dst, 2)
		if dst, err = appendResultRow(dst, r, cached[i], 2); err != nil {
			return nil, err
		}
	}
	if len(rs) > 0 {
		dst = appendIndent(dst, 1)
	}
	dst = append(dst, ']')
	dst = appendIndent(dst, 0)
	return append(dst, '}', '\n'), nil
}

// appendResultRow appends the ResultJSON of r (with Cached set to cached)
// as an object whose opening brace sits at nesting depth depth. Fields
// follow ResultJSON's order and omitempty rules, power_w keys are
// sorted, and a non-finite float is refused with the error encoding/json
// returns for it, at the same field.
func appendResultRow(dst []byte, r core.Result, cached bool, depth int) ([]byte, error) {
	var err error
	in := depth + 1
	dst = append(dst, '{')
	dst = appendKey(dst, in, "point", true)
	dst = append(dst, '{')
	dst = appendKey(dst, in+1, "arch", true)
	dst = appendString(dst, r.Point.Arch.String())
	dst = appendKey(dst, in+1, "bits", false)
	dst = strconv.AppendInt(dst, int64(r.Point.Bits), 10)
	dst = appendKey(dst, in+1, "lna_noise", false)
	if dst, err = appendFloat(dst, r.Point.LNANoise); err != nil {
		return nil, err
	}
	if r.Point.M != 0 {
		dst = appendKey(dst, in+1, "m", false)
		dst = strconv.AppendInt(dst, int64(r.Point.M), 10)
	}
	if r.Point.CHold != 0 {
		dst = appendKey(dst, in+1, "chold", false)
		if dst, err = appendFloat(dst, r.Point.CHold); err != nil {
			return nil, err
		}
	}
	dst = appendIndent(dst, in)
	dst = append(dst, '}')
	for _, f := range [...]struct {
		key string
		v   float64
	}{{"snr_db", r.MeanSNRdB}, {"accuracy", r.Accuracy}, {"total_w", r.TotalPower}} {
		dst = appendKey(dst, in, f.key, false)
		if dst, err = appendFloat(dst, f.v); err != nil {
			return nil, err
		}
	}
	if len(r.Power) > 0 {
		dst = appendKey(dst, in, "power_w", false)
		if dst, err = appendPower(dst, r, in); err != nil {
			return nil, err
		}
	}
	dst = appendKey(dst, in, "area_caps", false)
	if dst, err = appendFloat(dst, r.AreaCaps); err != nil {
		return nil, err
	}
	if cached {
		dst = appendKey(dst, in, "cached", false)
		dst = append(dst, "true"...)
	}
	if r.Err != nil {
		if msg := r.Err.Error(); msg != "" {
			dst = appendKey(dst, in, "err", false)
			dst = appendString(dst, msg)
		}
	}
	dst = appendIndent(dst, depth)
	return append(dst, '}'), nil
}

// appendPower appends the non-empty power breakdown as the object
// encoding/json makes of a map: keys in sorted order, values in that
// order, so a non-finite value is refused at the same key.
func appendPower(dst []byte, r core.Result, depth int) ([]byte, error) {
	var buf [16]string // the block library has 9 components
	keys := buf[:0]
	for c := range r.Power {
		keys = append(keys, string(c))
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	var err error
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendIndent(dst, depth+1)
		dst = appendString(dst, k)
		dst = append(dst, ':', ' ')
		if dst, err = appendFloat(dst, r.Power[power.Component(k)]); err != nil {
			return nil, err
		}
	}
	dst = appendIndent(dst, depth)
	return append(dst, '}'), nil
}

// appendKey starts an object member at nesting depth depth: the comma
// separating it from the previous one unless first, the line break and
// indentation, the quoted name and the colon. Names are ASCII field tags
// that need no escaping.
func appendKey(dst []byte, depth int, name string, first bool) []byte {
	if !first {
		dst = append(dst, ',')
	}
	dst = appendIndent(dst, depth)
	dst = append(dst, '"')
	dst = append(dst, name...)
	return append(dst, '"', ':', ' ')
}

// appendIndent breaks the line and indents it by depth levels of two
// spaces, as SetIndent("", "  ") does.
func appendIndent(dst []byte, depth int) []byte {
	dst = append(dst, '\n')
	for i := 0; i < depth; i++ {
		dst = append(dst, ' ', ' ')
	}
	return dst
}

// appendFloat formats f as encoding/json does: like ES6, 'f' format for
// 1e-6 <= |f| < 1e21 and 'e' otherwise, with a negative exponent's
// leading zero dropped. Infinities and NaN are refused with the
// *json.UnsupportedValueError encoding/json returns for them.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendString quotes s as encoding/json does with HTML escaping on:
// quote, backslash and control bytes escaped (\b \f \n \r \t by name),
// <, > and & as \u00XX, U+2028 and U+2029 as \u202X, and each byte of
// invalid UTF-8 replaced by \ufffd.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
