// Stub of repro/internal/core for ctxrelease fixtures: the
// checkout/release pair of a cached automaton's warm contexts is
// package-private, so its cases live here.
package core

type Cursor struct{}

func (c *Cursor) Close()     {}
func (c *Cursor) Next() bool { return false }

type ctx struct{}

// compiled stands in for a cached automaton with its free lists.
type compiled struct{}

func (cv *compiled) checkout(opt string) (*ctx, bool) { return nil, false }
func (cv *compiled) release(opt string, c *ctx)       {}

type Engine struct{ cv compiled }

func (e *Engine) EvalCursor(q string) (*Cursor, error)      { return nil, nil }
func (e *Engine) EvalCursorTrace(q string) (*Cursor, error) { return nil, nil }

func (e *Engine) leakyCheckout(leak bool) {
	c, warm := e.cv.checkout("opt")
	_ = warm
	if leak {
		return // want "pooled context .c. .from core.checkout at .* is not released on this return"
	}
	e.cv.release("opt", c)
}

func (e *Engine) cleanCheckout() {
	c, _ := e.cv.checkout("opt")
	defer e.cv.release("opt", c)
}

// closureRelease is the cursor-construction pattern: the checkout is
// captured by a release closure that outlives the call, transferring
// ownership to whoever holds the closure.
func (e *Engine) closureRelease() func() {
	c, _ := e.cv.checkout("opt")
	return func() { e.cv.release("opt", c) }
}
