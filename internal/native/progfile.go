package native

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/vm"
)

// Program container format: the "conventional executable" the baselines
// ship — a header (name, globals, function table) plus the
// variable-encoded text segment. This is what a native loader would
// receive; the wire and BRISC objects are its compressed competitors.

var progMagic = [4]byte{'N', 'E', 'X', '1'}

// EncodeProgram serializes a complete VM program with the x86-like
// variable text encoding.
func EncodeProgram(p *vm.Program) []byte {
	var b []byte
	b = append(b, progMagic[:]...)
	b = appendString(b, p.Name)
	b = appendUvarint(b, uint64(p.DataSize))
	b = appendUvarint(b, uint64(len(p.Globals)))
	for _, g := range p.Globals {
		b = appendString(b, g.Name)
		b = appendUvarint(b, uint64(g.Addr))
		b = appendUvarint(b, uint64(g.Size))
		b = appendUvarint(b, uint64(len(g.Init)))
		b = append(b, g.Init...)
	}
	b = appendUvarint(b, uint64(len(p.Funcs)))
	for _, f := range p.Funcs {
		b = appendString(b, f.Name)
		b = appendUvarint(b, uint64(f.Entry))
		b = appendUvarint(b, uint64(f.End))
		b = appendUvarint(b, uint64(f.Frame))
	}
	text := EncodeVariable(p.Code)
	b = appendUvarint(b, uint64(len(text)))
	b = append(b, text...)
	return b
}

// DecodeProgram reverses EncodeProgram.
func DecodeProgram(data []byte) (*vm.Program, error) {
	if len(data) < 4 || !bytes.Equal(data[:4], progMagic[:]) {
		return nil, fmt.Errorf("%w: bad program magic", ErrCorrupt)
	}
	r := &reader{data: data, pos: 4}
	p := &vm.Program{}
	var err error
	if p.Name, err = r.str(); err != nil {
		return nil, err
	}
	ds, err := r.uv()
	if err != nil || ds > math.MaxInt32 {
		return nil, fmt.Errorf("%w: data size", ErrCorrupt)
	}
	p.DataSize = int(ds)
	ng, err := r.uv()
	if err != nil || ng > 1<<20 {
		return nil, fmt.Errorf("%w: globals count", ErrCorrupt)
	}
	for i := uint64(0); i < ng; i++ {
		var g vm.GlobalData
		if g.Name, err = r.str(); err != nil {
			return nil, err
		}
		addr, err := r.uv()
		if err != nil {
			return nil, err
		}
		size, err := r.uv()
		if err != nil || size > 1<<28 {
			return nil, fmt.Errorf("%w: global size", ErrCorrupt)
		}
		il, err := r.uv()
		if err != nil || il > size {
			return nil, fmt.Errorf("%w: global init", ErrCorrupt)
		}
		if addr > ds || size > ds-addr {
			return nil, fmt.Errorf("%w: global %q outside the data segment", ErrCorrupt, g.Name)
		}
		g.Addr, g.Size = int32(addr), int(size)
		if g.Init, err = r.take(int(il)); err != nil {
			return nil, err
		}
		p.Globals = append(p.Globals, g)
	}
	nf, err := r.uv()
	if err != nil || nf > 1<<20 {
		return nil, fmt.Errorf("%w: function count", ErrCorrupt)
	}
	for i := uint64(0); i < nf; i++ {
		var f vm.FuncInfo
		if f.Name, err = r.str(); err != nil {
			return nil, err
		}
		entry, err := r.uv()
		if err != nil {
			return nil, err
		}
		end, err := r.uv()
		if err != nil {
			return nil, err
		}
		frame, err := r.uv()
		if err != nil {
			return nil, err
		}
		f.Entry, f.End, f.Frame = int(entry), int(end), int(frame)
		p.Funcs = append(p.Funcs, f)
	}
	tl, err := r.uv()
	if err != nil || tl > 1<<30 {
		return nil, fmt.Errorf("%w: text length", ErrCorrupt)
	}
	text, err := r.take(int(tl))
	if err != nil {
		return nil, err
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
	}
	if p.Code, err = DecodeVariable(text); err != nil {
		return nil, err
	}
	p.ComputeBlockStarts()
	return p, nil
}

type reader struct {
	data []byte
	pos  int
}

func (r *reader) uv() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: varint at %d", ErrCorrupt, r.pos)
	}
	r.pos += n
	return v, nil
}

func (r *reader) take(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, fmt.Errorf("%w: truncated (%d wanted)", ErrCorrupt, n)
	}
	b := make([]byte, n)
	copy(b, r.data[r.pos:])
	r.pos += n
	return b, nil
}

func (r *reader) str() (string, error) {
	n, err := r.uv()
	if err != nil {
		return "", err
	}
	if n > 1<<20 {
		return "", fmt.Errorf("%w: string too long", ErrCorrupt)
	}
	b, err := r.take(int(n))
	return string(b), err
}

func appendUvarint(dst []byte, v uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	return append(dst, buf[:binary.PutUvarint(buf[:], v)]...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}
