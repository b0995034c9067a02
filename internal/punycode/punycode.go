// Package punycode implements the Punycode bootstring encoding of RFC 3492
// and the thin slice of IDNA (RFC 5890) needed to convert internationalized
// domain names to and from their "xn--" ASCII-compatible form.
//
// Homograph squatting domains in the wild are registered as IDNs: the domain
// the user sees (fàcebook.com) and the domain in DNS (xn--fcebook-8va.com)
// differ, and squatting detection must translate between the two (paper §3.1,
// Figure 1). The standard library does not expose punycode, so this package
// implements it from scratch.
package punycode

import (
	"errors"
	"fmt"
	"strings"
	"unicode/utf8"
)

// Bootstring parameters for Punycode (RFC 3492 §5).
const (
	base        = 36
	tmin        = 1
	tmax        = 26
	skew        = 38
	damp        = 700
	initialBias = 72
	initialN    = 128
	delimiter   = '-'
)

// ErrInvalid reports malformed punycode input.
var ErrInvalid = errors.New("punycode: invalid input")

// ErrOverflow reports input whose decoded form exceeds representable bounds.
var ErrOverflow = errors.New("punycode: overflow")

// adapt is the bias adaptation function of RFC 3492 §6.1.
//
//squat:hot
func adapt(delta, numPoints int, firstTime bool) int {
	if firstTime {
		delta /= damp
	} else {
		delta /= 2
	}
	delta += delta / numPoints
	k := 0
	for delta > ((base-tmin)*tmax)/2 {
		delta /= base - tmin
		k += base
	}
	return k + (base-tmin+1)*delta/(delta+skew)
}

// encodeDigit converts a digit value in [0, 36) to its basic code point.
func encodeDigit(d int) byte {
	switch {
	case d < 26:
		return byte('a' + d)
	case d < 36:
		return byte('0' + d - 26)
	}
	panic("punycode: internal error: digit out of range")
}

// decodeDigit converts a basic code point to its digit value, or -1.
//
//squat:hot
func decodeDigit(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c-'0') + 26
	case 'a' <= c && c <= 'z':
		return int(c - 'a')
	case 'A' <= c && c <= 'Z':
		return int(c - 'A')
	}
	return -1
}

// Encode converts a Unicode string to its punycode form (without any
// "xn--" prefix). Pure-ASCII input is returned with a trailing delimiter
// per RFC 3492; callers that want IDNA semantics should use ToASCII.
func Encode(s string) (string, error) {
	var out strings.Builder
	runes := []rune(s)

	basicCount := 0
	for _, r := range runes {
		if r < 0x80 {
			out.WriteByte(byte(r))
			basicCount++
		}
	}
	h := basicCount
	if basicCount > 0 {
		out.WriteByte(delimiter)
	}

	n, delta, bias := initialN, 0, initialBias
	for h < len(runes) {
		// Find the smallest non-basic code point >= n.
		m := rune(0x7fffffff)
		for _, r := range runes {
			if r >= rune(n) && r < m {
				m = r
			}
		}
		if int(m)-n > (1<<31-1-delta)/(h+1) {
			return "", ErrOverflow
		}
		delta += (int(m) - n) * (h + 1)
		n = int(m)
		for _, r := range runes {
			if r < rune(n) {
				delta++
				if delta == 1<<31-1 {
					return "", ErrOverflow
				}
			}
			if r == rune(n) {
				q := delta
				for k := base; ; k += base {
					t := k - bias
					if t < tmin {
						t = tmin
					} else if t > tmax {
						t = tmax
					}
					if q < t {
						break
					}
					out.WriteByte(encodeDigit(t + (q-t)%(base-t)))
					q = (q - t) / (base - t)
				}
				out.WriteByte(encodeDigit(q))
				bias = adapt(delta, h+1, h == basicCount)
				delta = 0
				h++
			}
		}
		delta++
		n++
	}
	return out.String(), nil
}

// Decode converts a punycode string (without "xn--" prefix) back to Unicode.
func Decode(s string) (string, error) {
	out, err := AppendDecode(nil, s)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// AppendDecode is the bootstring decoder: it appends the code points of
// the punycode label s (without "xn--" prefix) to dst and returns the
// extended slice, allocating only to grow dst. On error the returned slice
// is dst with its contents beyond the original length unspecified. Generic
// over both byte views so the string API and byte-slice scan paths share
// one decoder.
//
//squat:hot
func AppendDecode[T string | []byte](dst []rune, s T) ([]rune, error) {
	base0 := len(dst)
	// Everything before the last delimiter is basic code points (a byte of
	// a multi-byte or invalid sequence is >= 0x80 either way); without one,
	// last ends at -1 and decoding starts at the first byte.
	last := len(s) - 1
	for last >= 0 && s[last] != delimiter {
		last--
	}
	for j := 0; j < last; j++ {
		if s[j] >= 0x80 {
			return dst, ErrInvalid
		}
		dst = append(dst, rune(s[j]))
	}
	pos := last + 1

	n, i, bias := initialN, 0, initialBias
	for pos < len(s) {
		oldi, w := i, 1
		for k := base; ; k += base {
			if pos >= len(s) {
				return dst, ErrInvalid
			}
			d := decodeDigit(s[pos])
			pos++
			if d < 0 {
				return dst, ErrInvalid
			}
			if d > (1<<31-1-i)/w {
				return dst, ErrOverflow
			}
			i += d * w
			t := k - bias
			if t < tmin {
				t = tmin
			} else if t > tmax {
				t = tmax
			}
			if d < t {
				break
			}
			if w > (1<<31-1)/(base-t) {
				return dst, ErrOverflow
			}
			w *= base - t
		}
		out := len(dst) - base0 + 1
		bias = adapt(i-oldi, out, oldi == 0)
		if i/out > 1<<31-1-n {
			return dst, ErrOverflow
		}
		n += i / out
		i %= out
		if n > utf8.MaxRune || !utf8.ValidRune(rune(n)) {
			return dst, ErrInvalid
		}
		dst = append(dst, 0)
		copy(dst[base0+i+1:], dst[base0+i:])
		dst[base0+i] = rune(n)
		i++
	}
	return dst, nil
}

// acePrefix is the IDNA ASCII-compatible-encoding prefix.
const acePrefix = "xn--"

// ToASCII converts a (possibly internationalized) domain name to its
// ASCII-compatible encoding, label by label. ASCII labels pass through
// unchanged. It applies simple lowercasing but no full IDNA2008 mapping,
// which is sufficient for squatting-domain generation and matching.
func ToASCII(domain string) (string, error) {
	labels := strings.Split(strings.ToLower(domain), ".")
	for li, label := range labels {
		if label == "" || isASCII(label) {
			continue
		}
		enc, err := Encode(label)
		if err != nil {
			return "", fmt.Errorf("label %q: %w", label, err)
		}
		labels[li] = acePrefix + enc
		if len(labels[li]) > 63 {
			return "", fmt.Errorf("label %q: %w: encoded label exceeds 63 octets", label, ErrInvalid)
		}
	}
	return strings.Join(labels, "."), nil
}

// ToUnicode converts an ASCII-compatible-encoded domain back to Unicode,
// label by label. Labels that are not valid punycode are passed through
// unchanged, mirroring lenient browser behaviour.
func ToUnicode(domain string) string {
	labels := strings.Split(domain, ".")
	for li, label := range labels {
		lower := strings.ToLower(label)
		if !strings.HasPrefix(lower, acePrefix) {
			continue
		}
		dec, err := Decode(lower[len(acePrefix):])
		if err != nil {
			continue
		}
		labels[li] = dec
	}
	return strings.Join(labels, ".")
}

// IsACE reports whether any label of domain carries the "xn--" prefix.
func IsACE(domain string) bool {
	for _, label := range strings.Split(strings.ToLower(domain), ".") {
		if strings.HasPrefix(label, acePrefix) {
			return true
		}
	}
	return false
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}
