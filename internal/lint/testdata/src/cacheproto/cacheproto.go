// Package cacheproto exercises the netdeadline analyzer, which patrols
// packages named cacheproto.
package cacheproto

import (
	"bufio"
	"net"
	"time"
)

type wire struct {
	c net.Conn
	r *bufio.Reader
	w *bufio.Writer
}

func (x *wire) readLineBad() ([]byte, error) {
	return x.r.ReadSlice('\n') // want `bufio\.Reader\.ReadSlice without an earlier`
}

func (x *wire) readLineGood() ([]byte, error) {
	if err := x.c.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
		return nil, err
	}
	return x.r.ReadSlice('\n')
}

// readLineHelper performs I/O on behalf of callers that already armed the
// per-op deadline.
//
//genie:deadlinearmed callers arm the per-op deadline before dispatching
func (x *wire) readLineHelper() ([]byte, error) {
	return x.r.ReadSlice('\n')
}

func (x *wire) flushBad() error {
	return x.w.Flush() // want `bufio\.Writer\.Flush without an earlier`
}

func (x *wire) armDeadline() {
	_ = x.c.SetDeadline(time.Now().Add(time.Second))
}

func (x *wire) writeGood(p []byte) error {
	x.armDeadline()
	if _, err := x.w.Write(p); err != nil {
		return err
	}
	return x.w.Flush()
}

func (x *wire) rawBad(p []byte) (int, error) {
	return x.c.Read(p) // want `net\.Conn Read without an earlier`
}
