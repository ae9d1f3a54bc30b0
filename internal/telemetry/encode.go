package telemetry

import "unicode/utf8"

const hexDigits = "0123456789abcdef"

// appendString appends a JSON string literal with encoding/json's default
// escaping: quotes, backslashes, control characters, the HTML-sensitive
// set (<, >, &), U+2028/U+2029, and U+FFFD for invalid UTF-8.
func appendString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '\\', '"':
				buf = append(buf, '\\', b)
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				// Control chars and <, >, & escape as \u00XX.
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}

// jsonSafe[b] reports whether ASCII byte b can appear unescaped inside a
// JSON string under encoding/json's default (HTML-escaping) rules.
var jsonSafe = func() [utf8.RuneSelf]bool {
	var t [utf8.RuneSelf]bool
	for b := 0; b < utf8.RuneSelf; b++ {
		t[b] = b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return t
}()
