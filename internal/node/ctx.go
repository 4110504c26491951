package node

import (
	"fmt"

	"lotec/internal/ids"
	"lotec/internal/o2pl"
	"lotec/internal/schema"
)

// MethodFunc is the Go body of one class method. Bodies run inside a
// [sub-]transaction: every Read/Write is covered by the object's lock, and
// a returned error aborts (only) this sub-transaction.
type MethodFunc func(ctx *Ctx) error

// MethodTable registers bodies for class methods.
type MethodTable struct {
	m map[ids.ClassID]map[ids.MethodID]MethodFunc
}

// NewMethodTable returns an empty table.
func NewMethodTable() *MethodTable {
	return &MethodTable{m: make(map[ids.ClassID]map[ids.MethodID]MethodFunc)}
}

// Register binds a body to class.method (by name).
func (t *MethodTable) Register(cls *schema.Class, method string, fn MethodFunc) error {
	m, err := cls.MethodByName(method)
	if err != nil {
		return err
	}
	byID := t.m[cls.ID]
	if byID == nil {
		byID = make(map[ids.MethodID]MethodFunc)
		t.m[cls.ID] = byID
	}
	if _, dup := byID[m.ID]; dup {
		return fmt.Errorf("node: body for %s.%s registered twice", cls.Name, method)
	}
	byID[m.ID] = fn
	return nil
}

// lookup resolves a body.
func (t *MethodTable) lookup(cls ids.ClassID, m ids.MethodID) (MethodFunc, error) {
	if fn, ok := t.m[cls][m]; ok {
		return fn, nil
	}
	return nil, fmt.Errorf("%w: class %d method %d", ErrUnknownMethod, cls, m)
}

// Ctx is a method body's handle on its executing sub-transaction: attribute
// access on the locked object, sub-invocations on other objects, and the
// argument/result channel. A Ctx is valid only for the duration of its body
// and must not be used from other goroutines.
type Ctx struct {
	eng    *Engine
	ts     *txState
	obj    ids.ObjectID
	cls    *schema.Class
	layout *schema.Layout
	method schema.Method
	arg    []byte
	result []byte
}

// Self returns the object the method executes on.
func (c *Ctx) Self() ids.ObjectID { return c.obj }

// Class returns the object's class.
func (c *Ctx) Class() *schema.Class { return c.cls }

// Method returns the executing method's declaration.
func (c *Ctx) Method() schema.Method { return c.method }

// Arg returns the invocation argument.
func (c *Ctx) Arg() []byte { return c.arg }

// SetResult records the value Invoke/Run returns.
func (c *Ctx) SetResult(b []byte) { c.result = b }

// TxID returns the executing sub-transaction's ID (diagnostics).
func (c *Ctx) TxID() ids.TxID { return c.ts.t.ID() }

// declared reports whether attr is in the method's declared set: reads may
// touch Reads ∪ Writes, writes only Writes.
func (c *Ctx) declared(attr schema.AttrID, write bool) bool {
	for _, a := range c.method.Writes {
		if a == attr {
			return true
		}
	}
	if write {
		return false
	}
	for _, a := range c.method.Reads {
		if a == attr {
			return true
		}
	}
	return false
}

// resolveAccess validates bounds and the declaration contract for an access
// to [off, off+n) of attr, returning the object-relative offset and pages.
func (c *Ctx) resolveAccess(attr string, off, n int, write bool) (int, schema.PageSet, error) {
	a, err := c.cls.AttrByName(attr)
	if err != nil {
		return 0, nil, err
	}
	if off < 0 || n < 0 || off+n > a.Size {
		return 0, nil, fmt.Errorf("node: access [%d,%d) outside attribute %s.%s (size %d)",
			off, off+n, c.cls.Name, attr, a.Size)
	}
	base, err := c.layout.AttrOffset(a.ID)
	if err != nil {
		return 0, nil, err
	}
	abs := base + off
	pageSize := c.layout.PageSize()
	var pages schema.PageSet
	if n > 0 {
		first := abs / pageSize
		last := (abs + n - 1) / pageSize
		for p := first; p <= last; p++ {
			pages = append(pages, ids.PageNum(p))
		}
	}
	if !c.declared(a.ID, write) {
		if c.eng.cfg.Strict {
			kind := "read"
			if write {
				kind = "write"
			}
			return 0, nil, fmt.Errorf("%w: %s of %s.%s in method %s",
				ErrUndeclaredAccess, kind, c.cls.Name, attr, c.method.Name)
		}
		// Lenient mode: an unpredicted write may be happening under a read
		// lock — upgrade to write first, then fetch the (possibly stale)
		// pages on demand (§4.3).
		if write {
			if err := c.eng.acquire(c.ts, c.obj, o2pl.Write); err != nil {
				return 0, nil, err
			}
		}
		if err := c.eng.ensureCurrent(c.ts, c.obj, pages); err != nil {
			return 0, nil, err
		}
	}
	return abs, pages, nil
}

// Read returns a copy of the whole attribute.
func (c *Ctx) Read(attr string) ([]byte, error) {
	a, err := c.cls.AttrByName(attr)
	if err != nil {
		return nil, err
	}
	return c.ReadAt(attr, 0, a.Size)
}

// ReadAt returns a copy of n bytes of attr starting at off.
func (c *Ctx) ReadAt(attr string, off, n int) ([]byte, error) {
	if doomed := c.eng.doomOf(c.ts); doomed != nil {
		return nil, doomed
	}
	abs, pages, err := c.resolveAccess(attr, off, n, false)
	if err != nil {
		return nil, err
	}
	data, err := c.eng.cfg.Store.Read(c.obj, abs, n)
	if _, missing := pagesMissingError(err); missing {
		// Resident-set miss under lax prediction: demand-fetch and retry.
		if ferr := c.eng.ensureCurrent(c.ts, c.obj, pages); ferr != nil {
			return nil, ferr
		}
		data, err = c.eng.cfg.Store.Read(c.obj, abs, n)
	}
	if err != nil {
		return nil, fmt.Errorf("read %s.%s: %w", c.cls.Name, attr, err)
	}
	return data, nil
}

// Write overwrites the whole attribute (data must be exactly the attribute
// size).
func (c *Ctx) Write(attr string, data []byte) error {
	a, err := c.cls.AttrByName(attr)
	if err != nil {
		return err
	}
	if len(data) != a.Size {
		return fmt.Errorf("node: write of %d bytes to %s.%s (size %d)",
			len(data), c.cls.Name, attr, a.Size)
	}
	return c.WriteAt(attr, 0, data)
}

// WriteAt overwrites part of attr starting at off. The prior page images
// are shadow-logged first so any enclosing abort restores them exactly.
func (c *Ctx) WriteAt(attr string, off int, data []byte) error {
	if doomed := c.eng.doomOf(c.ts); doomed != nil {
		return doomed
	}
	abs, pages, err := c.resolveAccess(attr, off, len(data), true)
	if err != nil {
		return err
	}
	if err := c.ts.undo.SnapshotBefore(c.eng.cfg.Store, c.obj, pages); err != nil {
		if _, missing := pagesMissingError(err); missing {
			if ferr := c.eng.ensureCurrent(c.ts, c.obj, pages); ferr != nil {
				return ferr
			}
			err = c.ts.undo.SnapshotBefore(c.eng.cfg.Store, c.obj, pages)
		}
		if err != nil {
			return fmt.Errorf("shadow %s.%s: %w", c.cls.Name, attr, err)
		}
	}
	if _, err := c.eng.cfg.Store.Write(c.obj, abs, data); err != nil {
		return fmt.Errorf("write %s.%s: %w", c.cls.Name, attr, err)
	}
	return nil
}

// Invoke runs method on obj as a sub-transaction of this one. An error
// return means the sub-transaction aborted and was rolled back; the caller
// may handle the error and continue — that is the point of closed nesting.
func (c *Ctx) Invoke(obj ids.ObjectID, method string, arg []byte) ([]byte, error) {
	if doomed := c.eng.doomOf(c.ts); doomed != nil {
		return nil, doomed
	}
	return c.eng.invoke(c.ts, obj, method, arg)
}

// InvokeAll runs several sub-transactions concurrently and waits for all of
// them, returning one result per call in order. Each failed child is rolled
// back independently; the caller decides whether to continue or abort.
//
// This is the intra-family concurrency of §3.3 of the paper, with the
// paper's caveat applied: correctness of concurrent sibling access to the
// same objects "is left to the programmer" — in particular, siblings should
// acquire overlapping objects in a consistent order, or the family can
// deadlock itself.
func (c *Ctx) InvokeAll(calls []InvokeSpec) []InvokeResult {
	if doomed := c.eng.doomOf(c.ts); doomed != nil {
		out := make([]InvokeResult, len(calls))
		for i := range out {
			out[i] = InvokeResult{Err: doomed}
		}
		return out
	}
	return c.eng.invokeParallel(c.ts, calls)
}
