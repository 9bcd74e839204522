package main

import (
	"reflect"
	"testing"
)

func TestSpansNestAndSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	noop := func() error { return nil }
	_, _ = tr.Span("a", func() error {
		_, _ = tr.Span("b", noop)
		_, err := tr.Span("c", func() error {
			_, err := tr.Span("d", noop)
			return err
		})
		return err
	})
	_, _ = tr.Span("e", noop)
	var parents []int
	for _, s := range tr.spans {
		parents = append(parents, s.Parent)
	}
	if want := []int{-1, 0, 0, 2, -1}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents = %v, want %v", parents, want)
	}

	tr.spans = []Span{
		{Name: "root", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "child", Parent: 0, StartNs: 10, EndNs: 40},
		{Name: "grandchild", Parent: 1, StartNs: 15, EndNs: 25},
		{Name: "child2", Parent: 0, StartNs: 50, EndNs: 90},
	}
	var self []int64
	for _, s := range tr.Spans() {
		self = append(self, s.SelfNs)
	}
	if want := []int64{30, 20, 10, 40}; !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
}
