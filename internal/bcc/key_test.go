package bcc

import (
	"strings"
	"testing"
)

func tritMsg(c byte) Message {
	switch c {
	case '0':
		return Bit(0)
	case '1':
		return Bit(1)
	default:
		return Silence
	}
}

func TestTranscriptKeyRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"0",
		"1",
		"_",
		"01_",
		"___10",
		strings.Repeat("01_", 21),         // 63 trits: crosses the lo/hi word boundary
		strings.Repeat("1", MaxKeyRounds), // full capacity
	}
	for _, s := range cases {
		msgs := make([]Message, len(s))
		for i := range s {
			msgs[i] = tritMsg(s[i])
		}
		key, err := ParseKey(s)
		if err != nil {
			t.Fatalf("ParseKey(%q): %v", s, err)
		}
		str, err := TritString(msgs)
		if err != nil {
			t.Fatal(err)
		}
		if str != s {
			t.Fatalf("TritString = %q, want %q", str, s)
		}
		if key.String() != s {
			t.Errorf("key.String() = %q, want %q (TritString round-trip)", key.String(), s)
		}
		if key.Len() != len(s) {
			t.Errorf("key.Len() = %d, want %d", key.Len(), len(s))
		}
		for i := 0; i < len(s); i++ {
			if key.TritAt(i) != s[i] {
				t.Errorf("TritAt(%d) = %c, want %c", i, key.TritAt(i), s[i])
			}
		}
	}
}

func TestTranscriptKeyDistinguishesSequences(t *testing.T) {
	// '0'-trits encode as zero bits, so length must disambiguate padding.
	a, _ := ParseKey("0")
	b, _ := ParseKey("00")
	var empty TranscriptKey
	if a == b || a == empty || b == empty {
		t.Error("keys of distinct all-zero sequences must differ")
	}
	seen := make(map[TranscriptKey]string)
	for _, s := range []string{"", "0", "1", "_", "01", "10", "0_", "_0", "00", "11"} {
		k, err := ParseKey(s)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%q and %q pack to the same key", prev, s)
		}
		seen[k] = s
	}
}

func TestTranscriptKeyErrors(t *testing.T) {
	if _, err := ParseKey("01x"); err == nil {
		t.Error("ParseKey must reject alphabet violations")
	}
	if _, err := ParseKey(strings.Repeat("1", MaxKeyRounds+1)); err == nil {
		t.Errorf("packing %d trits must overflow", MaxKeyRounds+1)
	}
}

// mixAlgo broadcasts a vertex-dependent mix of 0s, 1s and silences.
type mixAlgo struct{ rounds int }

func (a mixAlgo) Name() string                 { return "mix" }
func (a mixAlgo) Bandwidth() int               { return 1 }
func (a mixAlgo) Rounds(int) int               { return a.rounds }
func (a mixAlgo) NewNode(v View, _ *Coin) Node { return mixNode{id: v.ID} }

type mixNode struct{ id int }

func (n mixNode) Send(round int) Message {
	switch (n.id + round) % 3 {
	case 0:
		return Silence
	case 1:
		return Bit(0)
	default:
		return Bit(1)
	}
}
func (mixNode) Receive(int, []Message) {}
