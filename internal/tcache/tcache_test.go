package tcache

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ghostbusters/internal/riscv"
	"ghostbusters/internal/vliw"
)

// testProg is a tiny but fully-populated guest image: every field that
// feeds the image hash is non-zero.
func testProg() *riscv.Program {
	return &riscv.Program{
		Entry:    0x1000,
		TextBase: 0x1000,
		Text:     []uint32{0x00100513, 0x00000073},
		DataBase: 0x2000,
		Data:     []byte{1, 2, 3, 4},
	}
}

// testRegion builds a region with a non-trivial block so the disk
// round trip exercises every part of a document: bundles, recoveries,
// a constant-pool immediate, and guest PCs that step forward, back and
// to zero (the side table's deltas of both signs).
func testRegion(pc uint64) *Region {
	return &Region{
		PC: pc, Trace: true,
		Lo: pc - 4, Hi: pc + 8,
		SpecLoads: 2, RiskyLoads: 1, GuardEdges: 3, Pattern: true,
		Block: &vliw.Block{
			EntryPC: pc,
			Bundles: []vliw.Bundle{
				{
					{Kind: vliw.KAluRI, Op: riscv.ADDI, Dst: 10, Ra: 10, Imm: 1, Rec: -1, GuestPC: pc},
					{Kind: vliw.KMovI, Dst: 40, Imm: 1 << 40, Rec: -1, GuestPC: pc - 4},
				},
				{
					{Kind: vliw.KChk, Tag: 3, Rec: 0, GuestPC: pc + 4},
					{Kind: vliw.KJump, Imm: int64(pc + 8), Rec: -1},
				},
			},
			Recoveries: [][]vliw.Syllable{
				{{Kind: vliw.KJump, Imm: int64(pc), Rec: -1, GuestPC: pc}},
			},
			FallPC:     pc + 8,
			GuestInsts: 2,
		},
	}
}

// The key must separate every input that can change a deterministic
// run's translation schedule: image contents, entry point, mode,
// configuration fingerprint and the out-of-image input salt.
func TestRunKeySensitivity(t *testing.T) {
	base := RunKey(testProg(), "unsafe", "cfg", "salt")

	if again := RunKey(testProg(), "unsafe", "cfg", "salt"); again != base {
		t.Fatalf("identical inputs produced different keys:\n%+v\n%+v", base, again)
	}

	vary := map[string]Key{}
	p := testProg()
	p.Text[0] ^= 1
	vary["text word"] = RunKey(p, "unsafe", "cfg", "salt")
	p = testProg()
	p.Data[0] ^= 1
	vary["data byte"] = RunKey(p, "unsafe", "cfg", "salt")
	p = testProg()
	p.Entry += 4
	vary["entry"] = RunKey(p, "unsafe", "cfg", "salt")
	vary["mode"] = RunKey(testProg(), "fence", "cfg", "salt")
	vary["fingerprint"] = RunKey(testProg(), "unsafe", "cfg2", "salt")
	vary["salt"] = RunKey(testProg(), "unsafe", "cfg", "salt2")

	seen := map[string]string{base.Full: "base"}
	for what, k := range vary {
		if k == base {
			t.Errorf("changing the %s did not change the key", what)
		}
		if prev, dup := seen[k.Full]; dup {
			t.Errorf("%s and %s collide on %q", what, prev, k.Full)
		}
		seen[k.Full] = what
	}
	// Image-only changes must leave the config hash alone and vice
	// versa, so documents land in the right directory level.
	if vary["text word"].Config != base.Config {
		t.Error("image change perturbed the config hash")
	}
	if vary["fingerprint"].Image != base.Image {
		t.Error("fingerprint change perturbed the image hash")
	}
}

// A published run must come back bit-identical from a fresh Cache on
// the same directory — the cross-process warm-start path.
func TestDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	k := RunKey(testProg(), "unsafe", "cfg", "")

	c1 := New(dir)
	r1 := c1.Run(k)
	want := testRegion(0x1000)
	r1.Record(want)
	empty := &Region{PC: 0x1010, Lo: 0x1010, Hi: 0x1014, Block: &vliw.Block{EntryPC: 0x1010}}
	r1.Record(empty)
	r1.Publish()
	if err := c1.Err(); err != nil {
		t.Fatalf("publish: %v", err)
	}
	if _, _, persisted := c1.Stats(); persisted != 1 {
		t.Fatalf("persisted %d documents, want 1", persisted)
	}

	c2 := New(dir)
	r2 := c2.Run(k)
	got := r2.Lookup(0x1000, true, false)
	if got == nil {
		t.Fatal("published region not found by a fresh cache")
	}
	if d := RegionDiff(want, got); d != "" {
		t.Errorf("region did not round-trip: %s", d)
	}
	if got := r2.Lookup(0x1010, false, false); got == nil {
		t.Error("second region lost in the round trip")
	} else if d := RegionDiff(empty, got); d != "" {
		t.Errorf("empty-block region did not round-trip: %s", d)
	}
	if r2.Lookup(0x1000, false, false) != nil {
		t.Error("lookup ignores the trace bit: block-shaped probe returned the trace")
	}
	if r2.Lookup(0x9999, false, false) != nil {
		t.Error("lookup invented a region")
	}
	if err := c2.Err(); err != nil {
		t.Fatalf("load: %v", err)
	}
}

// cacheFiles returns every document under dir.
func cacheFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// withHeader rewrites a document's schema and key, keeping its regions.
func withHeader(t *testing.T, doc []byte, schema, key string) []byte {
	t.Helper()
	d := decoder{buf: doc}
	d.bytes()
	d.bytes()
	if d.err != nil {
		t.Fatalf("document header: %v", d.err)
	}
	return append(appendString(appendString(nil, schema), key), d.buf...)
}

// Corrupt or foreign documents must degrade to a cold run, never to
// wrong code. Corruption surfaces through Err; a foreign schema or key
// is a well-formed document for someone else, and is not a fault.
func TestLoadRejectsBadDocuments(t *testing.T) {
	k := RunKey(testProg(), "unsafe", "cfg", "")
	publish := func(t *testing.T) (dir string, doc []byte) {
		t.Helper()
		dir = t.TempDir()
		c := New(dir)
		r := c.Run(k)
		r.Record(testRegion(0x1000))
		r.Publish()
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		files := cacheFiles(t, dir)
		if len(files) != 1 || files[0] != DocPath(c, k) {
			t.Fatalf("expected exactly the document %s, found %v", DocPath(c, k), files)
		}
		doc, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		return dir, doc
	}
	// cold writes data as the key's document and checks that a fresh
	// cache serves nothing from it, with an Err exactly when wantErr.
	cold := func(t *testing.T, dir string, data []byte, wantErr bool) {
		t.Helper()
		c := New(dir)
		if err := os.WriteFile(DocPath(c, k), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if c.Run(k).Lookup(0x1000, true, false) != nil {
			t.Error("bad document served a region")
		}
		if err := c.Err(); (err != nil) != wantErr {
			t.Errorf("Err() = %v, want an error: %v", err, wantErr)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		dir, doc := publish(t)
		cold(t, dir, doc[:len(doc)/2], true)
	})
	t.Run("every prefix", func(t *testing.T) {
		// A torn write can stop at any byte: no prefix may parse.
		dir, doc := publish(t)
		for n := 0; n < len(doc); n++ {
			cold(t, dir, doc[:n], true)
			if t.Failed() {
				t.Fatalf("prefix of %d of %d bytes", n, len(doc))
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		dir, doc := publish(t)
		cold(t, dir, append(doc, 0), true)
	})
	t.Run("wrong schema", func(t *testing.T) {
		dir, doc := publish(t)
		if !bytes.HasPrefix(doc, appendString(nil, Schema)) {
			t.Fatalf("document does not open with the schema %q", Schema)
		}
		cold(t, dir, withHeader(t, doc, "ghostbusters/tcache/v1", k.Full), false)
	})
	t.Run("foreign key", func(t *testing.T) {
		// A document whose full (unhashed) key disagrees with the probe
		// — the defense against path-hash collisions and stale
		// fingerprint rules — must be ignored.
		dir, doc := publish(t)
		if !bytes.Contains(doc, []byte(k.Full)) {
			t.Fatalf("document does not carry the full key %q", k.Full)
		}
		cold(t, dir, withHeader(t, doc, Schema, "someone|else|entirely|"), false)
	})
}

// A JSON document left behind by the v1 schema sits at a different
// file name: it is never opened, so it costs neither a region nor an
// error, and a v2 document beside it is served as usual.
func TestLoadIgnoresV1Document(t *testing.T) {
	dir := t.TempDir()
	k := RunKey(testProg(), "unsafe", "cfg", "")
	c := New(dir)
	v1 := strings.TrimSuffix(DocPath(c, k), ".bin") + ".json"
	if v1 == DocPath(c, k) {
		t.Fatalf("document path %s does not end in .bin", v1)
	}
	if err := os.MkdirAll(filepath.Dir(v1), 0o755); err != nil {
		t.Fatal(err)
	}
	stale := `{"schema":"ghostbusters/tcache/v1","key":"` + k.Full + `","regions":[{"pc":4096,"trace":true,"lo":4096,"hi":4104,"block":{}}]}`
	if err := os.WriteFile(v1, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	if c.Run(k).Lookup(0x1000, true, false) != nil {
		t.Error("a v1 JSON document served a region")
	}
	if err := c.Err(); err != nil {
		t.Errorf("a v1 JSON document raised an error: %v", err)
	}

	r := c.Run(k)
	r.Record(testRegion(0x1000))
	r.Publish()
	warm := New(dir)
	if warm.Run(k).Lookup(0x1000, true, false) == nil {
		t.Error("v2 document beside a v1 leftover was not served")
	}
	if err := warm.Err(); err != nil {
		t.Fatal(err)
	}
}

// A directory-less cache is a pure in-memory store: same semantics,
// nothing on disk, never an error.
func TestInMemoryCache(t *testing.T) {
	c := New("")
	k := RunKey(testProg(), "unsafe", "cfg", "")
	r := c.Run(k)
	if r.Lookup(0x1000, true, false) != nil {
		t.Fatal("empty cache returned a region")
	}
	r.Record(testRegion(0x1000))
	r.Publish()

	warm := c.Run(k)
	if warm.Lookup(0x1000, true, false) == nil {
		t.Fatal("in-memory cache lost the published region")
	}
	if c.Run(RunKey(testProg(), "fence", "cfg", "")).Lookup(0x1000, true, false) != nil {
		t.Error("region leaked across modes")
	}
	hits, misses, persisted := c.Stats()
	if hits == 0 || misses == 0 {
		t.Errorf("probe counters not maintained: hits=%d misses=%d", hits, misses)
	}
	if persisted != 0 {
		t.Errorf("in-memory cache wrote %d documents", persisted)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// Publishing the same run twice (two machines, same key) must stay
// idempotent: regions merge, the document is written once per change.
func TestPublishIdempotent(t *testing.T) {
	dir := t.TempDir()
	c := New(dir)
	k := RunKey(testProg(), "unsafe", "cfg", "")

	r1 := c.Run(k)
	r1.Record(testRegion(0x1000))
	r1.Publish()
	_, _, p1 := c.Stats()

	r2 := c.Run(k)
	r2.Record(testRegion(0x1000)) // same region, recorded by a second cold-ish run
	r2.Publish()
	_, _, p2 := c.Stats()
	if p2 != p1 {
		t.Errorf("re-publishing known regions rewrote the document (%d -> %d writes)", p1, p2)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}
