// Package goroleak exercises the goroutine-leak analyzer. The tied cases
// mirror the repository's real shapes: the WAL group-commit writer's
// range-over-request-channel loop, accept loops, WaitGroup joins, and the
// done-channel handoff.
package goroleak

import (
	"net"
	"sync"
	"time"
)

type writer struct {
	reqCh chan int
	wg    sync.WaitGroup
}

// run is the WAL group-commit shape: the goroutine parks on the request
// channel and exits when the owner closes it.
func (w *writer) run() {
	for req := range w.reqCh {
		_ = req
	}
}

func (w *writer) startTiedViaMethod() {
	go w.run() // range over reqCh ties the lifetime
}

func (w *writer) startTiedViaWaitGroup() {
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		time.Sleep(time.Millisecond)
	}()
}

func startTiedViaSelect(stop chan struct{}) {
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
}

func startTiedViaAccept(ln net.Listener) {
	go func() {
		for {
			conn, err := ln.Accept() // owner closes ln to stop us
			if err != nil {
				return
			}
			_ = conn.Close()
		}
	}()
}

func startTiedViaDoneChannel() string {
	done := make(chan string, 1)
	go func() {
		done <- "result" // spawner receives below
	}()
	return <-done
}

// queue is a generic owner: go q.run() reaches run's body through the
// method's generic origin.
type queue[T any] struct {
	ch chan T
}

func (q *queue[T]) run() {
	for item := range q.ch {
		_ = item
	}
}

func (q *queue[T]) spin() {
	for {
		time.Sleep(time.Second)
	}
}

func (q *queue[T]) startTiedGeneric() {
	go q.run() // range over ch ties the lifetime
}

func (q *queue[T]) startLeakyGeneric() {
	go q.spin() // want `goroutine's lifetime is not visibly tied`
}

func startLeakyLoop() {
	go func() { // want `goroutine's lifetime is not visibly tied`
		for {
			time.Sleep(time.Second)
		}
	}()
}

func sleepForever() {
	for {
		time.Sleep(time.Hour)
	}
}

func startLeakyViaFunc() {
	go sleepForever() // want `goroutine's lifetime is not visibly tied`
}

func startLeakySendNobodyReceives(orphan chan int) {
	go func() { // want `goroutine's lifetime is not visibly tied`
		orphan <- 1 // the spawner never receives: this park IS the leak
	}()
}

func startAnnotated() {
	//genie:nolint goroleak -- deliberately process-lifetime for the fixture
	go func() {
		for {
			time.Sleep(time.Second)
		}
	}()
}
