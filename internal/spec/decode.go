package spec

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"hsched/internal/model"
	"hsched/internal/platform"
)

// maxDepth is encoding/json's nesting limit: a document may open at
// most this many arrays and objects inside one another.
const maxDepth = 10000

// Decoder reads one JSON document in a single pass, straight into the
// caller's values. It accepts and rejects what encoding/json.Unmarshal
// accepts and rejects for the structs of this package and of the HTTP
// request types built on them:
//
//   - the grammar is encoding/json's: RFC 8259 values, at most maxDepth
//     nested arrays and objects, nothing but whitespace after the
//     top-level value;
//   - a member key selects the field it equals, else the one it equals
//     under Unicode case folding (bytes.EqualFold); other keys are
//     skipped, their values still checked for syntax;
//   - a repeated key decodes into the same field again: the last scalar
//     wins, and objects and array elements merge into what the earlier
//     value left there;
//   - null leaves a scalar or struct field as it was and sets a slice
//     or pointer field to nil;
//   - an int field takes a number only if strconv.ParseInt reads it (no
//     fraction, no exponent, in range), a float field only if
//     strconv.ParseFloat reads it in range;
//   - strings are unescaped, and invalid UTF-8 becomes U+FFFD.
//
// A syntax error ends decoding. A value of the wrong type (a string
// for a number, 1.5 for an int) is a mismatch: like encoding/json, the
// decoder records the first one, skips the value and reads on; End
// reports it. After a mismatch the decoded values are unspecified.
//
// Every decoded string is a fresh copy, so nothing decoded aliases the
// input buffer.
type Decoder struct {
	data  []byte
	off   int
	depth int
	// err is the first type mismatch.
	err error
	// buf holds the unescaped form of a string with escapes or non-ASCII
	// bytes; it is reused from one string to the next.
	buf []byte
}

// NewDecoder returns a decoder reading data.
func NewDecoder(data []byte) Decoder { return Decoder{data: data} }

// End checks that only whitespace follows the top-level value and
// returns the first type mismatch, if any.
func (d *Decoder) End() error {
	d.next()
	if d.off < len(d.data) {
		return d.syntaxError("after top-level value")
	}
	return d.err
}

// Isolate runs decode and returns its type mismatch, if any, apart
// from the document's own: End does not report it. A caller decoding
// two readings of one document at once keeps their verdicts apart
// this way.
func (d *Decoder) Isolate(decode func() error) (mismatch, err error) {
	saved := d.err
	d.err = nil
	err = decode()
	mismatch, d.err = d.err, saved
	return mismatch, err
}

// Field returns the field name an object key selects among names: the
// one it equals, else the one it equals under Unicode case folding, or
// "" for none.
func Field(key []byte, names []string) string {
	for _, n := range names {
		if len(n) == len(key) && n[0] == key[0] && string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

// Object decodes an object, calling member once per member with its
// unescaped key; member must consume the member's value, decoding or
// skipping it, and must not keep key. A null is consumed and reported;
// any other value is a mismatch.
func (d *Decoder) Object(member func(key []byte) error) (null bool, err error) {
	switch d.next() {
	case '{':
	case 'n':
		return true, d.literal("null")
	default:
		return false, d.mismatch("object")
	}
	if err := d.open(); err != nil {
		return false, err
	}
	if d.next() == '}' {
		d.close()
		return false, nil
	}
	for {
		if d.next() != '"' {
			return false, d.syntaxError("looking for beginning of object key string")
		}
		key, err := d.str()
		if err != nil {
			return false, err
		}
		if d.off >= len(d.data) || d.data[d.off] != ':' {
			if d.next() != ':' {
				return false, d.syntaxError("after object key")
			}
		}
		d.off++
		if err := member(key); err != nil {
			return false, err
		}
		switch d.next() {
		case ',':
			d.off++
		case '}':
			d.close()
			return false, nil
		default:
			return false, d.syntaxError("after object key:value pair")
		}
	}
}

// array decodes an array, calling elem once per element with its
// index; elem must consume the element. A null is consumed and
// reported; any other value is a mismatch.
func (d *Decoder) array(elem func(i int) error) (null bool, err error) {
	switch d.next() {
	case '[':
	case 'n':
		return true, d.literal("null")
	default:
		return false, d.mismatch("array")
	}
	if err := d.open(); err != nil {
		return false, err
	}
	if d.next() == ']' {
		d.close()
		return false, nil
	}
	for i := 0; ; i++ {
		if err := elem(i); err != nil {
			return false, err
		}
		switch d.next() {
		case ',':
			d.off++
		case ']':
			d.close()
			return false, nil
		default:
			return false, d.syntaxError("after array element")
		}
	}
}

// DecodeSlice decodes an array into *s the way encoding/json fills a
// slice: element i is decoded into (*s)[i], over whatever an earlier
// value of the same key left there, and the slice is cut to the
// array's length; [] makes it empty and null makes it nil. A fresh
// slice starts with room for four elements (a task chain's usual
// length), where encoding/json grows from one. Reusing an element
// beyond the length of a shorter earlier array matches encoding/json
// whatever the capacity, because an element never written is zero on
// both sides.
func DecodeSlice[T any](d *Decoder, s *[]T, elem func(*Decoder, *T) error) error {
	n := 0
	null, err := d.array(func(i int) error {
		switch {
		case cap(*s) == 0:
			*s = make([]T, 1, 4)
		case i >= cap(*s):
			var zero T
			*s = append(*s, zero)
		case i >= len(*s):
			*s = (*s)[:i+1]
		}
		n = i + 1
		return elem(d, &(*s)[i])
	})
	switch {
	case err != nil:
		return err
	case null:
		*s = nil
	case n == 0:
		*s = make([]T, 0)
	default:
		*s = (*s)[:n]
	}
	return nil
}

// Float decodes a number into *f; null leaves *f as it was.
func (d *Decoder) Float(f *float64) error {
	switch c := d.next(); {
	case c == '-' || '0' <= c && c <= '9':
		lit, err := d.number()
		if err != nil {
			return err
		}
		v, perr := strconv.ParseFloat(string(lit), 64)
		if perr != nil {
			d.fail(fmt.Errorf("number %s overflows a float field", lit))
			return nil
		}
		*f = v
		return nil
	case c == 'n':
		return d.literal("null")
	default:
		return d.mismatch("number")
	}
}

// Int decodes an integer into *v; null leaves *v as it was.
func (d *Decoder) Int(v *int) error {
	switch c := d.next(); {
	case c == '-' || '0' <= c && c <= '9':
		lit, err := d.number()
		if err != nil {
			return err
		}
		n, perr := strconv.ParseInt(string(lit), 10, 64)
		if perr != nil {
			d.fail(fmt.Errorf("number %s is not an integer in range", lit))
			return nil
		}
		*v = int(n)
		return nil
	case c == 'n':
		return d.literal("null")
	default:
		return d.mismatch("integer")
	}
}

// Bool decodes true or false into *b; null leaves *b as it was.
func (d *Decoder) Bool(b *bool) error {
	switch d.next() {
	case 't':
		*b = true
		return d.literal("true")
	case 'f':
		*b = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	default:
		return d.mismatch("boolean")
	}
}

// String decodes a string into a fresh copy at *s; null leaves *s as
// it was. A nil s checks the value and drops it.
func (d *Decoder) String(s *string) error {
	switch d.next() {
	case '"':
		raw, err := d.str()
		if err == nil && s != nil {
			*s = string(raw)
		}
		return err
	case 'n':
		return d.literal("null")
	default:
		return d.mismatch("string")
	}
}

// Skip consumes one value of any type, checking its syntax only.
func (d *Decoder) Skip() error {
	switch c := d.next(); {
	case c == '{':
		_, err := d.Object(func([]byte) error { return d.Skip() })
		return err
	case c == '[':
		_, err := d.array(func(int) error { return d.Skip() })
		return err
	case c == '"':
		_, err := d.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, err := d.number()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	default:
		return d.syntaxError("looking for beginning of value")
	}
}

// next skips whitespace and returns the byte at the read offset, 0 at
// the end of the input (a 0 byte is a syntax error wherever it occurs).
func (d *Decoder) next() byte {
	data, i := d.data, d.off
	for ; i < len(data); i++ {
		if c := data[i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			d.off = i
			return c
		}
	}
	d.off = i
	return 0
}

func (d *Decoder) open() error {
	d.off++
	if d.depth++; d.depth > maxDepth {
		d.off--
		return d.syntaxError("exceeding max depth")
	}
	return nil
}

func (d *Decoder) close() {
	d.off++
	d.depth--
}

func (d *Decoder) syntaxError(context string) error {
	if d.off >= len(d.data) {
		return fmt.Errorf("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", d.data[d.off], context, d.off)
}

// fail records err as the document's mismatch unless one is recorded.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// mismatch records that the value at the read offset is not of the
// wanted type, then skips it.
func (d *Decoder) mismatch(want string) error {
	got := "value"
	switch c := d.next(); {
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == '"':
		got = "string"
	case c == '-' || '0' <= c && c <= '9':
		got = "number"
	case c == 't' || c == 'f':
		got = "boolean"
	case c == 'n':
		got = "null"
	}
	d.fail(fmt.Errorf("cannot decode %s into a %s field (offset %d)", got, want, d.off))
	return d.Skip()
}

// literal consumes the literal word (true, false or null).
func (d *Decoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.off >= len(d.data) || d.data[d.off] != word[i] {
			return d.syntaxError("in literal " + word)
		}
		d.off++
	}
	return nil
}

// number consumes a number and returns its bytes.
func (d *Decoder) number() ([]byte, error) {
	data, start := d.data, d.off
	i := start
	if data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && '1' <= data[i] && data[i] <= '9':
		i = digits(data, i+1)
	default:
		d.off = i
		return nil, d.syntaxError("in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		if j := digits(data, i+1); j > i+1 {
			i = j
		} else {
			d.off = i + 1
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if j := digits(data, i); j > i {
			i = j
		} else {
			d.off = i
			return nil, d.syntaxError("in exponent of numeric literal")
		}
	}
	d.off = i
	return data[start:i], nil
}

// digits returns the offset of the first byte at or after i that is
// not a decimal digit.
func digits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// str consumes a string and returns its unescaped bytes, which alias
// the input or the decoder's scratch buffer: valid only until the next
// string is read.
func (d *Decoder) str() ([]byte, error) {
	data, start := d.data, d.off+1
	i := start
	for i < len(data) && plain[data[i]] {
		i++
	}
	if i < len(data) && data[i] == '"' {
		d.off = i + 1
		return data[start:i], nil
	}
	return d.unescape(start, i)
}

// plain marks the bytes a string holds as themselves: printable ASCII
// other than the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescape finishes a string from offset i, whose plain prefix starts
// at start, decoding it the way encoding/json does.
func (d *Decoder) unescape(start, i int) ([]byte, error) {
	b := append(d.buf[:0], d.data[start:i]...)
	defer func() { d.buf = b[:0] }()
	for i < len(d.data) {
		c := d.data[i]
		switch {
		case c == '"':
			d.off = i + 1
			return b, nil
		case c < ' ':
			d.off = i
			return nil, d.syntaxError("in string literal")
		case c == '\\':
			i++
			if i >= len(d.data) {
				d.off = i
				return nil, d.syntaxError("in string escape code")
			}
			switch e := d.data[i]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r, bad := hex4(d.data[i+1:])
				if bad >= 0 {
					d.off = i + 1 + bad
					return nil, d.syntaxError(`in \u hexadecimal character escape`)
				}
				i += 4
				if utf16.IsSurrogate(r) {
					// A pair consumes the next escape too; anything else
					// leaves a lone surrogate, which becomes U+FFFD.
					lo, ok := escapedRune(d.data[i+1:])
					if dec := utf16.DecodeRune(r, lo); ok && dec != unicode.ReplacementChar {
						r = dec
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, r)
			default:
				d.off = i
				return nil, d.syntaxError("in string escape code")
			}
			i++
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, size := utf8.DecodeRune(d.data[i:])
			if r == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
			} else {
				b = append(b, d.data[i:i+size]...)
			}
			i += size
		}
	}
	d.off = len(d.data)
	return nil, d.syntaxError("in string literal")
}

// hex4 reads four hex digits; bad is the index of the first byte that
// is not one (or of the end of s), -1 when all four are.
func hex4(s []byte) (r rune, bad int) {
	for k := 0; k < 4; k++ {
		if k >= len(s) {
			return 0, k
		}
		c := s[k]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return 0, k
		}
		r = r<<4 | rune(c)
	}
	return r, -1
}

// escapedRune reads a \uXXXX escape at the start of s.
func escapedRune(s []byte) (rune, bool) {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return 0, false
	}
	r, bad := hex4(s[2:])
	return r, bad < 0
}

// Draft is a system document decoded in place: the platforms, and the
// transactions in model form but as written — 1-based platform
// references, a deadline of 0 where none was given. System applies the
// document's rules to it, the same rules as File.ToSystem.
type Draft struct {
	platforms    []platform.Params
	transactions []model.Transaction
}

// HasTransactions reports whether the document listed a transaction.
func (dr *Draft) HasTransactions() bool { return len(dr.transactions) > 0 }

// System resolves the draft into a validated system, which takes over
// the draft's slices. Errors wrap ErrInvalid and name the offending
// transaction and field.
func (dr *Draft) System() (*model.System, error) {
	return system(dr.platforms, dr.transactions)
}

// Draft decodes a document (File's JSON shape) into dr; null leaves dr
// as it was.
func (d *Decoder) Draft(dr *Draft) (null bool, err error) {
	return d.Object(func(key []byte) error {
		if ok, err := d.DraftMember(dr, key); ok || err != nil {
			return err
		}
		return d.Skip()
	})
}

// DraftMember decodes the value of a document member into dr when key
// names one (platforms or transactions) and reports whether it did; it
// consumes nothing otherwise.
func (d *Decoder) DraftMember(dr *Draft, key []byte) (bool, error) {
	switch Field(key, draftFields) {
	case "platforms":
		return true, DecodeSlice(d, &dr.platforms, (*Decoder).platform)
	case "transactions":
		return true, DecodeSlice(d, &dr.transactions, (*Decoder).Transaction)
	}
	return false, nil
}

// The JSON field names of File, PlatformSpec, TransactionSpec and
// TaskSpec.
var (
	draftFields       = []string{"platforms", "transactions"}
	platformFields    = []string{"name", "alpha", "delta", "beta"}
	transactionFields = []string{"name", "period", "deadline", "tasks"}
	taskFields        = []string{"name", "wcet", "bcet", "offset", "jitter", "priority", "platform", "blocking"}
)

// platform decodes a PlatformSpec-shaped object; its name is checked
// and dropped, as File.ToSystem drops it.
func (d *Decoder) platform(p *platform.Params) error {
	_, err := d.Object(func(key []byte) error {
		switch Field(key, platformFields) {
		case "name":
			return d.String(nil)
		case "alpha":
			return d.Float(&p.Alpha)
		case "delta":
			return d.Float(&p.Delta)
		case "beta":
			return d.Float(&p.Beta)
		}
		return d.Skip()
	})
	return err
}

// Transaction decodes a TransactionSpec-shaped object into tr as
// written (see Draft); ResolveTransaction applies the document's rules.
// null leaves tr as it was.
func (d *Decoder) Transaction(tr *model.Transaction) error {
	_, err := d.Object(func(key []byte) error {
		switch Field(key, transactionFields) {
		case "name":
			return d.String(&tr.Name)
		case "period":
			return d.Float(&tr.Period)
		case "deadline":
			return d.Float(&tr.Deadline)
		case "tasks":
			return DecodeSlice(d, &tr.Tasks, (*Decoder).task)
		}
		return d.Skip()
	})
	return err
}

// task decodes a TaskSpec-shaped object, its platform reference as
// written.
func (d *Decoder) task(k *model.Task) error {
	_, err := d.Object(func(key []byte) error {
		switch Field(key, taskFields) {
		case "name":
			return d.String(&k.Name)
		case "wcet":
			return d.Float(&k.WCET)
		case "bcet":
			return d.Float(&k.BCET)
		case "offset":
			return d.Float(&k.Offset)
		case "jitter":
			return d.Float(&k.Jitter)
		case "priority":
			return d.Int(&k.Priority)
		case "platform":
			return d.Int(&k.Platform)
		case "blocking":
			return d.Float(&k.Blocking)
		}
		return d.Skip()
	})
	return err
}
