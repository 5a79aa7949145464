// Fixture for lockhold: blocking operations and nested acquisitions
// under a tracked mutex, plus clean patterns that must stay silent.
package qcache

import (
	"net/http"
	"sync"
	"time"
)

type Cache struct {
	mu sync.Mutex
	ch chan int
	n  int
}

func (c *Cache) SleepUnder() {
	c.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while c.mu is held"
	c.mu.Unlock()
}

func (c *Cache) SendUnderDefer() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ch <- 1 // want "channel send while c.mu is held"
}

func (c *Cache) RecvUnder() {
	c.mu.Lock()
	<-c.ch // want "channel receive while c.mu is held"
	c.mu.Unlock()
}

func (c *Cache) HTTPUnder() {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _ = http.Get("http://example.invalid/") // want "net/http call while c.mu is held"
}

func (c *Cache) SelectUnder() {
	c.mu.Lock()
	defer c.mu.Unlock()
	select { // want "select while c.mu is held"
	default:
	}
}

func (c *Cache) RangeChanUnder() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for range c.ch { // want "range over channel while c.mu is held"
	}
}

type Shard struct {
	mu    sync.Mutex
	inner sync.Mutex
}

func (s *Shard) Nested() {
	s.mu.Lock()
	s.inner.Lock() // want "nested acquisition of s.inner"
	s.inner.Unlock()
	s.mu.Unlock()
}

func (s *Shard) Twice() {
	s.mu.Lock()
	s.mu.Lock() // want "re-acquisition of s.mu"
	s.mu.Unlock()
}

// Negative cases below: all clean, no diagnostics.

func (c *Cache) UnlockThenBlock() {
	c.mu.Lock()
	c.n++
	c.mu.Unlock()
	<-c.ch
}

func (c *Cache) EarlyReturnBranch(hit bool) int {
	c.mu.Lock()
	if hit {
		c.mu.Unlock()
		return <-c.ch
	}
	n := c.n
	c.mu.Unlock()
	return n
}

func (c *Cache) AsyncUnderLock() {
	c.mu.Lock()
	defer c.mu.Unlock()
	go func() { c.ch <- 1 }() // runs after release: fine
}
