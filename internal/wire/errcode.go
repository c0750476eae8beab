package wire

import "fmt"

// Code is the one-byte error code that opens every TypeError payload, so a
// client dispatches on a number instead of parsing prose. The table in
// docs/PROTOCOL.md lists what each code means and what a client does with
// it.
type Code uint8

// Error codes. The numbers are the wire's, written out so that deleting a
// code can never renumber the ones after it: 4 (protocol 8's NOT_OWNER) is
// reserved and never reused.
const (
	// CodeInternal is a server-side failure with no routing significance.
	CodeInternal Code = 0
	// CodeBadRequest marks a malformed or unsupported request.
	CodeBadRequest Code = 1
	// CodeCancelled reports that the request's context was cancelled.
	CodeCancelled Code = 2
	// CodeDeadline reports that the request's deadline expired.
	CodeDeadline Code = 3
	// CodeVersionMismatch refuses a connection whose first frame is not a
	// Hello carrying ProtocolVersion. The connection closes behind it.
	CodeVersionMismatch Code = 5
)

// codeNames is what Code.String prints, and the "Name" column of the
// error table in docs/PROTOCOL.md.
var codeNames = [...]string{
	CodeInternal:        "INTERNAL",
	CodeBadRequest:      "BAD_REQUEST",
	CodeCancelled:       "CANCELLED",
	CodeDeadline:        "DEADLINE",
	CodeVersionMismatch: "VERSION_MISMATCH",
}

func (c Code) String() string {
	if int(c) < len(codeNames) && codeNames[c] != "" {
		return codeNames[c]
	}
	return fmt.Sprintf("code(%d)", uint8(c))
}

// ErrorPayload is a decoded TypeError payload.
type ErrorPayload struct {
	Code Code
	Msg  string
}

// AppendError appends a TypeError payload to dst:
//
//	uint8   code
//	uint16  message length | message bytes
//	uint16  0   (reserved string, always empty)
//	uint16  0   (reserved string, always empty)
//
// The two reserved strings keep the layout a protocol-8 peer decodes: it
// refuses an error payload without them, and would then report a
// VERSION_MISMATCH refusal as an undecodable INTERNAL error.
func AppendError(dst []byte, e ErrorPayload) []byte {
	dst = append(dst, byte(e.Code))
	dst = appendString(dst, e.Msg)
	return append(dst, 0, 0, 0, 0)
}

// DecodeErrorPayload decodes a TypeError payload. The reserved strings must
// be present and are otherwise ignored. A code this build does not know
// decodes as itself and, mapping to nothing, acts as CodeInternal.
func DecodeErrorPayload(b []byte) (ErrorPayload, error) {
	if len(b) < 1 {
		return ErrorPayload{}, fmt.Errorf("wire: error payload: missing code: %w", ErrShortPayload)
	}
	e := ErrorPayload{Code: Code(b[0])}
	rest := b[1:]
	var err error
	if e.Msg, rest, err = cutString(rest); err != nil {
		return ErrorPayload{}, fmt.Errorf("wire: error payload message: %w", err)
	}
	for range 2 {
		if _, rest, err = cutString(rest); err != nil {
			return ErrorPayload{}, fmt.Errorf("wire: error payload reserved string: %w", err)
		}
	}
	if len(rest) != 0 {
		return ErrorPayload{}, fmt.Errorf("wire: error payload: %d trailing bytes: %w", len(rest), ErrShortPayload)
	}
	return e, nil
}
