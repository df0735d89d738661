package semprox

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzLoadEngine feeds arbitrary bytes to the snapshot decoder, which
// followers run on whatever a primary streams them and which embeds
// graph.Read and index.Unmarshal. It must never panic, and any snapshot
// it accepts must be Save-stable: saving the loaded engine, loading that
// and saving again gives the same bytes.
func FuzzLoadEngine(f *testing.F) {
	eng, g := toyEngine(f)
	eng.Train("classmate", classmateExamples(g))
	var trained bytes.Buffer
	if err := eng.Save(&trained); err != nil {
		f.Fatal(err)
	}
	f.Add(trained.Bytes())
	if _, err := eng.ApplyUpdate(randomToyDelta(rand.New(rand.NewSource(1)), g.NumNodes(), "fuzz")); err != nil {
		f.Fatal(err)
	}
	var updated bytes.Buffer
	if err := eng.Save(&updated); err != nil {
		f.Fatal(err)
	}
	f.Add(updated.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := LoadEngine(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := e.Save(&first); err != nil {
			t.Fatalf("accepted snapshot does not save: %v", err)
		}
		e2, err := LoadEngine(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved snapshot of an accepted input does not load: %v", err)
		}
		if err := e2.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save is not stable across a round-trip (%d vs %d bytes)", first.Len(), second.Len())
		}
	})
}
