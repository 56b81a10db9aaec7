package tcache

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ghostbusters/internal/vliw"
)

// Test-only views of the cache's internals, shared with the external
// tests in this directory (which run real kernels through the harness,
// a package that itself imports tcache).

// DocPath returns the document path of a key.
func DocPath(c *Cache, k Key) string { return c.path(k) }

// DocKeys returns the key of every document under dir, recovered from
// the document's path and the full key in its header, sorted.
func DocKeys(dir string) ([]Key, error) {
	var keys []Key
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		d := decoder{buf: data}
		d.bytes()
		full := d.bytes()
		rel, err := filepath.Rel(dir, path)
		parts := strings.Split(filepath.ToSlash(rel), "/")
		if err != nil || d.err != nil || len(parts) != 3 {
			return fmt.Errorf("%s: not a document", path)
		}
		keys = append(keys, Key{Image: parts[0], Mode: parts[1],
			Config: strings.TrimSuffix(parts[2], ".bin"), Full: string(full)})
		return nil
	})
	sort.Slice(keys, func(a, b int) bool { return keys[a].Full < keys[b].Full })
	return keys, err
}

// Regions returns every region in the store of k (loading the key's
// document on first use), in document order.
func Regions(c *Cache, k Key) []*Region {
	st := c.Run(k).st
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]*Region, 0, len(st.regions))
	for _, rg := range st.regions {
		out = append(out, rg)
	}
	sortRegions(out)
	return out
}

// Reencode runs regions through another document encode → decode.
func Reencode(k Key, regions []*Region) ([]*Region, error) {
	doc, err := encodeDocument(k.Full, regions)
	if err != nil {
		return nil, err
	}
	return decodeDocument(doc, k.Full)
}

// RegionDiff describes the first exported field in which got differs
// from want, including every syllable's GuestPC, or returns "".
func RegionDiff(want, got *Region) string {
	w, g := *want, *got
	w.Block, g.Block = nil, nil
	if w != g {
		return fmt.Sprintf("region fields: want %+v, got %+v", w, g)
	}
	if (want.Block == nil) != (got.Block == nil) {
		return fmt.Sprintf("block presence: want %v, got %v", want.Block != nil, got.Block != nil)
	}
	if want.Block == nil {
		return ""
	}
	return BlockDiff(want.Block, got.Block)
}

// BlockDiff compares two blocks' exported content; the lazily built
// dispatch table is host state, not content.
func BlockDiff(want, got *vliw.Block) string {
	if want.EntryPC != got.EntryPC || want.FallPC != got.FallPC || want.GuestInsts != got.GuestInsts {
		return fmt.Sprintf("block header: want (%#x, %#x, %d), got (%#x, %#x, %d)",
			want.EntryPC, want.FallPC, want.GuestInsts, got.EntryPC, got.FallPC, got.GuestInsts)
	}
	if len(want.Bundles) != len(got.Bundles) || len(want.Recoveries) != len(got.Recoveries) {
		return fmt.Sprintf("block shape: want %d bundles/%d recoveries, got %d/%d",
			len(want.Bundles), len(want.Recoveries), len(got.Bundles), len(got.Recoveries))
	}
	seqDiff := func(what string, i int, w, g []vliw.Syllable) string {
		if len(w) != len(g) {
			return fmt.Sprintf("%s %d: want %d syllables, got %d", what, i, len(w), len(g))
		}
		for j := range w {
			if w[j] != g[j] {
				return fmt.Sprintf("%s %d syllable %d: want %+v, got %+v", what, i, j, w[j], g[j])
			}
		}
		return ""
	}
	for i := range want.Bundles {
		if d := seqDiff("bundle", i, want.Bundles[i], got.Bundles[i]); d != "" {
			return d
		}
	}
	for i := range want.Recoveries {
		if d := seqDiff("recovery", i, want.Recoveries[i], got.Recoveries[i]); d != "" {
			return d
		}
	}
	return ""
}
