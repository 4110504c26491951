package gdo

import (
	"fmt"
	"sort"
	"strings"

	"lotec/internal/ids"
)

// DebugDump renders the directory's lock state for diagnostics: every
// non-free entry, in object order, with its holders (site holds named as
// such), queues and pending upgrades.
func (d *Directory) DebugDump() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var b strings.Builder
	objs := make([]ids.ObjectID, 0, len(d.entries))
	for o := range d.entries {
		objs = append(objs, o)
	}
	sort.Slice(objs, func(i, j int) bool { return objs[i] < objs[j] })
	for _, oi := range objs {
		e := d.entries[oi]
		if len(e.holders) == 0 && len(e.queues) == 0 && len(e.upgrades) == 0 {
			continue
		}
		fmt.Fprintf(&b, "%v state=%v", e.obj, e.state())
		for _, h := range e.holders {
			if ids.IsSiteFamily(h.family) {
				fmt.Fprintf(&b, " sitehold{site=%v mode=%v}", h.site, h.mode)
				continue
			}
			fmt.Fprintf(&b, " holder{fam=%v site=%v mode=%v refs=%d}", h.family, h.site, h.mode, len(h.refs))
		}
		for _, q := range e.queues {
			fmt.Fprintf(&b, " queue{fam=%v site=%v age=%d reqs=%v}", q.family, q.site, q.age, q.reqs)
		}
		for _, u := range e.upgrades {
			fmt.Fprintf(&b, " upgrade{fam=%v site=%v age=%d}", u.family, u.site, u.age)
		}
		b.WriteString("\n")
	}
	return b.String()
}
