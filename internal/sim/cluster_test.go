package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"lotec/internal/core"
	"lotec/internal/ids"
	"lotec/internal/node"
	"lotec/internal/o2pl"
	"lotec/internal/schema"
	"time"
)

// i64 encodes a little-endian int64 argument.
func i64(v int64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(v))
	return b
}

func dec64(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

// objPair encodes two object IDs as an argument.
func objPair(a, b ids.ObjectID) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, uint64(a))
	binary.LittleEndian.PutUint64(buf[8:], uint64(b))
	return buf
}

// errInsufficient is a deliberate application abort.
var errInsufficient = errors.New("insufficient funds")

// testbed builds a cluster with the standard test schema:
//
//	Account: balance(8), log(256) — 3 pages of 128B
//	  deposit(W balance), withdraw(W balance), peek(R balance),
//	  appendLog(W log), audit(R balance+log)
//	Job: note(8) — driver objects for multi-object roots
//	  twoDeposits(W note): deposit into two accounts in argument order
//	  readTwo(R note → invokes peek twice)
//	  depositAbortInner(W note): first deposit commits, second withdraw
//	    fails and is survived
func testbed(t *testing.T, cfg Config) (*Cluster, *schema.Class, *schema.Class) {
	t.Helper()
	if cfg.PageSize == 0 {
		cfg.PageSize = 128
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	account, err := schema.NewClassBuilder(1, "Account").
		Attr("balance", 8).
		Attr("log", 256).
		Method(schema.MethodSpec{Name: "deposit", Writes: []string{"balance"}}).
		Method(schema.MethodSpec{Name: "withdraw", Writes: []string{"balance"}}).
		Method(schema.MethodSpec{Name: "peek", Reads: []string{"balance"}}).
		Method(schema.MethodSpec{Name: "appendLog", Writes: []string{"log"}}).
		Method(schema.MethodSpec{Name: "audit", Reads: []string{"balance", "log"}}).
		Method(schema.MethodSpec{Name: "sneakyLog", Writes: []string{"balance"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	job, err := schema.NewClassBuilder(2, "Job").
		Attr("note", 8).
		Method(schema.MethodSpec{Name: "twoDeposits", Writes: []string{"note"}}).
		Method(schema.MethodSpec{Name: "readTwo", Reads: []string{"note"}}).
		Method(schema.MethodSpec{Name: "depositAbortInner", Writes: []string{"note"}}).
		Method(schema.MethodSpec{Name: "selfInvoke", Writes: []string{"note"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddClass(account); err != nil {
		t.Fatal(err)
	}
	if err := c.AddClass(job); err != nil {
		t.Fatal(err)
	}

	mustReg := func(cls *schema.Class, name string, fn node.MethodFunc) {
		t.Helper()
		if err := c.RegisterBody(cls, name, fn); err != nil {
			t.Fatal(err)
		}
	}
	mustReg(account, "deposit", func(ctx *node.Ctx) error {
		cur, err := ctx.Read("balance")
		if err != nil {
			return err
		}
		next := dec64(cur) + dec64(ctx.Arg())
		if err := ctx.Write("balance", i64(next)); err != nil {
			return err
		}
		ctx.SetResult(i64(next))
		return nil
	})
	mustReg(account, "withdraw", func(ctx *node.Ctx) error {
		cur, err := ctx.Read("balance")
		if err != nil {
			return err
		}
		bal := dec64(cur)
		amt := dec64(ctx.Arg())
		if bal < amt {
			return errInsufficient
		}
		return ctx.Write("balance", i64(bal-amt))
	})
	mustReg(account, "peek", func(ctx *node.Ctx) error {
		cur, err := ctx.Read("balance")
		if err != nil {
			return err
		}
		ctx.SetResult(cur)
		return nil
	})
	mustReg(account, "appendLog", func(ctx *node.Ctx) error {
		return ctx.WriteAt("log", int(dec64(ctx.Arg()))%200, []byte("entry"))
	})
	mustReg(account, "audit", func(ctx *node.Ctx) error {
		bal, err := ctx.Read("balance")
		if err != nil {
			return err
		}
		if _, err := ctx.Read("log"); err != nil {
			return err
		}
		ctx.SetResult(bal)
		return nil
	})
	mustReg(account, "sneakyLog", func(ctx *node.Ctx) error {
		// Undeclared write: the method only declares balance.
		return ctx.WriteAt("log", 0, []byte("sneak"))
	})
	mustReg(job, "twoDeposits", func(ctx *node.Ctx) error {
		a := ids.ObjectID(binary.LittleEndian.Uint64(ctx.Arg()))
		b := ids.ObjectID(binary.LittleEndian.Uint64(ctx.Arg()[8:]))
		if _, err := ctx.Invoke(a, "deposit", i64(10)); err != nil {
			return err
		}
		if _, err := ctx.Invoke(b, "deposit", i64(10)); err != nil {
			return err
		}
		return ctx.Write("note", i64(1))
	})
	mustReg(job, "readTwo", func(ctx *node.Ctx) error {
		a := ids.ObjectID(binary.LittleEndian.Uint64(ctx.Arg()))
		b := ids.ObjectID(binary.LittleEndian.Uint64(ctx.Arg()[8:]))
		ra, err := ctx.Invoke(a, "peek", nil)
		if err != nil {
			return err
		}
		rb, err := ctx.Invoke(b, "peek", nil)
		if err != nil {
			return err
		}
		ctx.SetResult(i64(dec64(ra) + dec64(rb)))
		return nil
	})
	mustReg(job, "depositAbortInner", func(ctx *node.Ctx) error {
		a := ids.ObjectID(binary.LittleEndian.Uint64(ctx.Arg()))
		b := ids.ObjectID(binary.LittleEndian.Uint64(ctx.Arg()[8:]))
		if _, err := ctx.Invoke(a, "deposit", i64(5)); err != nil {
			return err
		}
		// This withdraw overdraws and aborts; the parent survives it.
		if _, err := ctx.Invoke(b, "withdraw", i64(1_000_000)); err == nil {
			return errors.New("expected inner abort")
		}
		return ctx.Write("note", i64(2))
	})
	mustReg(job, "selfInvoke", func(ctx *node.Ctx) error {
		_, err := ctx.Invoke(ctx.Self(), "selfInvoke", ctx.Arg())
		return err
	})
	return c, account, job
}

func mustObject(t *testing.T, c *Cluster, class ids.ClassID, owner ids.NodeID) ids.ObjectID {
	t.Helper()
	obj, err := c.CreateObject(class, owner)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func runAll(t *testing.T, c *Cluster) {
	t.Helper()
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	for _, r := range c.Results() {
		if r.Err != nil {
			t.Fatalf("root %s on %v failed: %v", r.Method, r.Obj, r.Err)
		}
	}
}

func TestSingleNodeDeposit(t *testing.T) {
	c, account, _ := testbed(t, Config{Nodes: 2})
	acct := mustObject(t, c, account.ID, 1)
	if err := c.Submit(0, 1, acct, "deposit", i64(42)); err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	if got := dec64(c.Results()[0].Out); got != 42 {
		t.Errorf("balance = %d, want 42", got)
	}
	cnt := c.Recorder().Counters()
	if cnt.Commits != 1 || cnt.Aborts != 0 {
		t.Errorf("counters = %+v", cnt)
	}
	if err := c.VerifyPageMapCoherence(); err != nil {
		t.Error(err)
	}
}

func TestCrossNodeDataMovement(t *testing.T) {
	for _, p := range core.AllWithRC() {
		t.Run(p.Name(), func(t *testing.T) {
			c, account, _ := testbed(t, Config{Nodes: 3, Protocol: p})
			acct := mustObject(t, c, account.ID, 1)
			// Writer at node 1, then reader at node 2 must see the deposit.
			if err := c.Submit(0, 1, acct, "deposit", i64(7)); err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(1e9, 2, acct, "peek", nil); err != nil {
				t.Fatal(err)
			}
			runAll(t, c)
			peek := c.Results()[1]
			if peek.Method != "peek" {
				peek = c.Results()[0]
			}
			if got := dec64(peek.Out); got != 7 {
				t.Errorf("%s: remote peek = %d, want 7", p.Name(), got)
			}
			if err := c.VerifyPageMapCoherence(); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestNestedInvocationAndInheritance(t *testing.T) {
	c, account, job := testbed(t, Config{Nodes: 2})
	a := mustObject(t, c, account.ID, 1)
	b := mustObject(t, c, account.ID, 2)
	j := mustObject(t, c, job.ID, 1)
	if err := c.Submit(0, 1, j, "twoDeposits", objPair(a, b)); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(1e9, 2, a, "peek", nil); err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	var peek *Result
	for _, r := range c.Results() {
		if r.Method == "peek" {
			peek = r
		}
	}
	if got := dec64(peek.Out); got != 10 {
		t.Errorf("balance after nested deposits = %d, want 10", got)
	}
}

func TestInnerAbortSurvivedByParent(t *testing.T) {
	c, account, job := testbed(t, Config{Nodes: 2})
	a := mustObject(t, c, account.ID, 1)
	b := mustObject(t, c, account.ID, 1)
	j := mustObject(t, c, job.ID, 1)
	if err := c.Submit(0, 1, j, "depositAbortInner", objPair(a, b)); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(1e9, 1, b, "peek", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(2e9, 1, a, "peek", nil); err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	rs := c.Results()
	// b's failed withdraw must have been rolled back; a's deposit kept.
	for _, r := range rs {
		if r.Method != "peek" {
			continue
		}
		want := int64(0)
		if r.Obj == a {
			want = 5
		}
		if got := dec64(r.Out); got != want {
			t.Errorf("peek(%v) = %d, want %d", r.Obj, got, want)
		}
	}
	if c.Recorder().Counters().Aborts != 0 {
		t.Error("inner abort must not count as a root abort")
	}
}

func TestRootAbortRollsBackEverything(t *testing.T) {
	c, account, _ := testbed(t, Config{Nodes: 2})
	a := mustObject(t, c, account.ID, 1)
	// Deposit 3, then a root withdraw that fails — balance must stay 3.
	if err := c.Submit(0, 1, a, "deposit", i64(3)); err != nil {
		t.Fatal(err)
	}
	env := c // run failing root manually to inspect the error
	if err := env.Submit(1e9, 2, a, "withdraw", i64(100)); err != nil {
		t.Fatal(err)
	}
	if err := env.Submit(2e9, 1, a, "peek", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	var peek, withdraw *Result
	for _, r := range c.Results() {
		switch r.Method {
		case "peek":
			peek = r
		case "withdraw":
			withdraw = r
		}
	}
	if withdraw.Err == nil || !errors.Is(withdraw.Err, errInsufficient) {
		t.Errorf("withdraw err = %v", withdraw.Err)
	}
	if got := dec64(peek.Out); got != 3 {
		t.Errorf("balance = %d, want 3 (rollback)", got)
	}
	if c.Recorder().Counters().Aborts != 1 {
		t.Errorf("aborts = %d, want 1", c.Recorder().Counters().Aborts)
	}
	if err := c.VerifyPageMapCoherence(); err != nil {
		t.Error(err)
	}
}

func TestRecursiveInvocationPrecluded(t *testing.T) {
	c, _, job := testbed(t, Config{Nodes: 1})
	j := mustObject(t, c, job.ID, 1)
	if err := c.Submit(0, 1, j, "selfInvoke", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	r := c.Results()[0]
	if r.Err == nil || !errors.Is(r.Err, o2pl.ErrRecursiveInvocation) {
		t.Errorf("selfInvoke err = %v, want ErrRecursiveInvocation", r.Err)
	}
}

func TestStrictUndeclaredAccessRejected(t *testing.T) {
	c, account, _ := testbed(t, Config{Nodes: 1})
	a := mustObject(t, c, account.ID, 1)
	if err := c.Submit(0, 1, a, "sneakyLog", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	r := c.Results()[0]
	if r.Err == nil || !errors.Is(r.Err, node.ErrUndeclaredAccess) {
		t.Errorf("err = %v, want ErrUndeclaredAccess", r.Err)
	}
}

func TestLenientUndeclaredWriteAllowed(t *testing.T) {
	c, account, _ := testbed(t, Config{Nodes: 2, Lenient: true})
	a := mustObject(t, c, account.ID, 1)
	if err := c.Submit(0, 2, a, "sneakyLog", nil); err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	if err := c.VerifyPageMapCoherence(); err != nil {
		t.Error(err)
	}
}

func TestDeadlockResolvedByRetry(t *testing.T) {
	c, account, job := testbed(t, Config{Nodes: 2})
	a := mustObject(t, c, account.ID, 1)
	b := mustObject(t, c, account.ID, 2)
	j1 := mustObject(t, c, job.ID, 1)
	j2 := mustObject(t, c, job.ID, 2)
	// Family 1: deposit a then b. Family 2: deposit b then a, same instant.
	if err := c.Submit(0, 1, j1, "twoDeposits", objPair(a, b)); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(0, 2, j2, "twoDeposits", objPair(b, a)); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(1e10, 1, a, "peek", nil); err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	for _, r := range c.Results() {
		if r.Method == "peek" {
			if got := dec64(r.Out); got != 20 {
				t.Errorf("final balance = %d, want 20 (both roots committed)", got)
			}
		}
	}
	cnt := c.Recorder().Counters()
	if cnt.Commits != 3 {
		t.Errorf("commits = %d, want 3", cnt.Commits)
	}
	if err := c.VerifyPageMapCoherence(); err != nil {
		t.Error(err)
	}
}

func TestCrossFamilyReadSharing(t *testing.T) {
	c, account, job := testbed(t, Config{Nodes: 3})
	a := mustObject(t, c, account.ID, 1)
	b := mustObject(t, c, account.ID, 1)
	j2 := mustObject(t, c, job.ID, 2)
	j3 := mustObject(t, c, job.ID, 3)
	// Two reader families on different nodes at the same instant.
	if err := c.Submit(0, 2, j2, "readTwo", objPair(a, b)); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(0, 3, j3, "readTwo", objPair(a, b)); err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	for _, r := range c.Results() {
		if got := dec64(r.Out); got != 0 {
			t.Errorf("readTwo = %d, want 0", got)
		}
	}
}

func TestUpgradeReadThenWriteSameFamily(t *testing.T) {
	// A family whose first sub-transaction reads an object and whose second
	// writes it exercises the R→W upgrade path.
	c, err := NewCluster(Config{Nodes: 2, PageSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	account, err := schema.NewClassBuilder(1, "Acct").
		Attr("balance", 8).
		Method(schema.MethodSpec{Name: "peek", Reads: []string{"balance"}}).
		Method(schema.MethodSpec{Name: "deposit", Writes: []string{"balance"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	driver, err := schema.NewClassBuilder(2, "Driver").
		Attr("x", 8).
		Method(schema.MethodSpec{Name: "peekThenDeposit", Writes: []string{"x"}}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddClass(account); err != nil {
		t.Fatal(err)
	}
	if err := c.AddClass(driver); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterBody(account, "peek", func(ctx *node.Ctx) error {
		_, err := ctx.Read("balance")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterBody(account, "deposit", func(ctx *node.Ctx) error {
		cur, err := ctx.Read("balance")
		if err != nil {
			return err
		}
		return ctx.Write("balance", i64(dec64(cur)+dec64(ctx.Arg())))
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterBody(driver, "peekThenDeposit", func(ctx *node.Ctx) error {
		a := ids.ObjectID(binary.LittleEndian.Uint64(ctx.Arg()))
		if _, err := ctx.Invoke(a, "peek", nil); err != nil {
			return err
		}
		if _, err := ctx.Invoke(a, "deposit", i64(9)); err != nil {
			return err
		}
		return ctx.Write("x", i64(1))
	}); err != nil {
		t.Fatal(err)
	}
	acct := mustObject(t, c, account.ID, 1)
	d := mustObject(t, c, driver.ID, 2)
	arg := make([]byte, 8)
	binary.LittleEndian.PutUint64(arg, uint64(acct))
	if err := c.Submit(0, 2, d, "peekThenDeposit", arg); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(1e9, 1, acct, "deposit", i64(1)); err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	final, err := c.ObjectBytes(acct)
	if err != nil {
		t.Fatal(err)
	}
	if got := dec64(final[:8]); got != 10 {
		t.Errorf("final balance = %d, want 10", got)
	}
}

// TestProtocolEquivalence is invariant 2 of DESIGN.md: all four protocols
// produce identical final object state for the same deterministic workload.
func TestProtocolEquivalence(t *testing.T) {
	finals := make(map[string][][]byte)
	var names []string
	for _, p := range core.AllWithRC() {
		c, account, job := testbed(t, Config{Nodes: 4, Protocol: p})
		a := mustObject(t, c, account.ID, 1)
		b := mustObject(t, c, account.ID, 2)
		var jobs []ids.ObjectID
		for n := 1; n <= 4; n++ {
			jobs = append(jobs, mustObject(t, c, job.ID, ids.NodeID(n)))
		}
		for i := 0; i < 8; i++ {
			nd := ids.NodeID(i%4 + 1)
			if i%2 == 0 {
				if err := c.Submit(int64ToDur(i), nd, jobs[i%4], "twoDeposits", objPair(a, b)); err != nil {
					t.Fatal(err)
				}
			} else {
				if err := c.Submit(int64ToDur(i), nd, a, "appendLog", i64(int64(i*13))); err != nil {
					t.Fatal(err)
				}
			}
		}
		runAll(t, c)
		if err := c.VerifyPageMapCoherence(); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		fa, err := c.ObjectBytes(a)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := c.ObjectBytes(b)
		if err != nil {
			t.Fatal(err)
		}
		finals[p.Name()] = [][]byte{fa, fb}
		names = append(names, p.Name())
	}
	ref := finals[names[0]]
	for _, n := range names[1:] {
		for i := range ref {
			if !bytes.Equal(ref[i], finals[n][i]) {
				t.Errorf("final state of object %d differs between %s and %s", i, names[0], n)
			}
		}
	}
}

func int64ToDur(i int) time.Duration { return time.Duration(i) * time.Millisecond }

// TestByteOrderingAcrossProtocols is invariant 3: data bytes obey
// LOTEC ≤ OTEC ≤ COTEC on a transfer-heavy workload.
func TestByteOrderingAcrossProtocols(t *testing.T) {
	data := make(map[string]int64)
	for _, p := range core.All() {
		c, account, _ := testbed(t, Config{Nodes: 4, Protocol: p})
		a := mustObject(t, c, account.ID, 1)
		// Bounce the object between nodes: each hop updates only balance
		// (page 0 of 3), so prediction saves LOTEC the log pages.
		for i := 0; i < 12; i++ {
			nd := ids.NodeID(i%4 + 1)
			if err := c.Submit(int64ToDur(i)*1000, nd, a, "deposit", i64(1)); err != nil {
				t.Fatal(err)
			}
			if i%3 == 0 {
				if err := c.Submit(int64ToDur(i)*1000+500, nd, a, "appendLog", i64(int64(i))); err != nil {
					t.Fatal(err)
				}
			}
		}
		runAll(t, c)
		data[p.Name()] = c.Recorder().Totals().DataBytes
	}
	if !(data["LOTEC"] <= data["OTEC"] && data["OTEC"] <= data["COTEC"]) {
		t.Errorf("byte ordering violated: LOTEC=%d OTEC=%d COTEC=%d",
			data["LOTEC"], data["OTEC"], data["COTEC"])
	}
	if data["LOTEC"] == 0 {
		t.Error("no data moved; workload broken")
	}
}

// TestSerialEquivalence is invariant 1: the committed concurrent history
// matches a serial replay of the same transactions.
func TestSerialEquivalence(t *testing.T) {
	build := func() (*Cluster, ids.ObjectID, ids.ObjectID, []ids.ObjectID) {
		c, account, job := testbed(t, Config{Nodes: 3})
		a := mustObject(t, c, account.ID, 1)
		b := mustObject(t, c, account.ID, 2)
		var jobs []ids.ObjectID
		for n := 1; n <= 3; n++ {
			jobs = append(jobs, mustObject(t, c, job.ID, ids.NodeID(n)))
		}
		return c, a, b, jobs
	}
	// Concurrent run.
	c, a, b, jobs := build()
	for i := 0; i < 6; i++ {
		nd := ids.NodeID(i%3 + 1)
		if err := c.Submit(int64ToDur(i), nd, jobs[i%3], "twoDeposits", objPair(a, b)); err != nil {
			t.Fatal(err)
		}
	}
	runAll(t, c)
	concA, err := c.ObjectBytes(a)
	if err != nil {
		t.Fatal(err)
	}
	// Serial replay: same transactions strictly one at a time.
	s, sa, sb, sjobs := build()
	for i := 0; i < 6; i++ {
		nd := ids.NodeID(i%3 + 1)
		if err := s.Submit(int64ToDur(i)*1e6, nd, sjobs[i%3], "twoDeposits", objPair(sa, sb)); err != nil {
			t.Fatal(err)
		}
	}
	runAll(t, s)
	serA, err := s.ObjectBytes(sa)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(concA, serA) {
		t.Error("concurrent final state differs from serial replay")
	}
}

func TestLocalVsGlobalLockOps(t *testing.T) {
	c, account, job := testbed(t, Config{Nodes: 2})
	a := mustObject(t, c, account.ID, 1)
	b := mustObject(t, c, account.ID, 1)
	j := mustObject(t, c, job.ID, 1)
	if err := c.Submit(0, 1, j, "twoDeposits", objPair(a, b)); err != nil {
		t.Fatal(err)
	}
	runAll(t, c)
	cnt := c.Recorder().Counters()
	if cnt.GlobalLockOps == 0 {
		t.Error("expected global lock ops")
	}
}

func TestResultErrors(t *testing.T) {
	c, _, _ := testbed(t, Config{Nodes: 1})
	if err := c.Submit(0, 9, 0, "x", nil); err == nil {
		t.Error("unknown node should fail")
	}
	if err := c.Submit(0, 1, 999, "deposit", nil); err != nil {
		t.Fatal(err) // submit succeeds; the run fails
	}
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if len(c.FailedResults()) != 1 {
		t.Errorf("failed results = %v", c.FailedResults())
	}
	var sample *Result
	for _, r := range c.Results() {
		sample = r
	}
	if sample.Err == nil {
		t.Error("unknown object root should fail")
	}
	_ = fmt.Sprintf("%v", sample)
}
