package skiplist

import (
	"testing"

	"learnedpieces/internal/index"
	"learnedpieces/internal/indextest"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, "skiplist", func() index.Index { return New() })
}

func TestLevelDistribution(t *testing.T) {
	l := New()
	for i := 0; i < 100000; i++ {
		l.Insert(uint64(i*7+1), 0)
	}
	if l.level < 5 || l.level > maxLevel {
		t.Fatalf("implausible level %d after 100k inserts", l.level)
	}
}

func TestDeterministicTowers(t *testing.T) {
	a, b := New(), New()
	for i := 0; i < 1000; i++ {
		a.Insert(uint64(i), 0)
		b.Insert(uint64(i), 0)
	}
	if a.level != b.level {
		t.Fatalf("levels differ: %d vs %d", a.level, b.level)
	}
}
