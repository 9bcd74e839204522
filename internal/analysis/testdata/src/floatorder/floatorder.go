// Package floatorder is the golden fixture for the nondeterminism
// analyzer's float findings: non-associative accumulation under map
// iteration, next to the exempt canonical-order reductions.
package floatorder

import "sort"

func sum(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total += v // want `floating-point accumulation into total inside map iteration`
	}
	return total
}

func spelledOut(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		total = total + v // want `floating-point accumulation into total inside map iteration`
	}
	return total
}

func product(m map[string]float64) float64 {
	p := 1.0
	for _, w := range m {
		p *= w // want `floating-point accumulation into p inside map iteration`
	}
	return p
}

func count(m map[string]bool) float64 {
	var n float64
	for range m {
		n++ // want `floating-point increment of n inside map iteration`
	}
	return n
}

func nested(groups map[string][]float64) float64 {
	total := 0.0
	for _, xs := range groups {
		for _, v := range xs {
			total += v // want `floating-point accumulation into total inside map iteration`
		}
	}
	return total
}

// nestedMaps is checked range by range: the inner map range reports
// the accumulation once, and the outer one leaves it to the inner.
func nestedMaps(groups map[string]map[string]float64) float64 {
	total := 0.0
	for _, g := range groups {
		for _, v := range g {
			total += v // want `floating-point accumulation into total inside map iteration`
		}
	}
	return total
}

// sliceSum is exempt: a slice reduces in index order, every run.
func sliceSum(xs []float64) float64 {
	total := 0.0
	for _, v := range xs {
		total += v
	}
	return total
}

// intSum is exempt: integer addition is bit-exact in any order.
func intSum(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// sortedSum is the fix the analyzer's diagnostic prescribes: extract
// the keys, sort them, reduce over the sorted slice.
func sortedSum(m map[string]float64) float64 {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	total := 0.0
	for _, k := range ks {
		total += m[k]
	}
	return total
}

// waived demonstrates a reasoned suppression.
func waived(m map[string]float64) float64 {
	total := 0.0
	for _, v := range m {
		//sprintvet:ignore nondeterminism fixture demonstrates a reasoned waiver
		total += v
	}
	return total
}

func bareIgnore(m map[string]float64) int {
	return len(m) /*sprintvet:ignore*/ // want `malformed //sprintvet:ignore: want`
}

func noReason(m map[string]float64) float64 {
	t := 0.0
	for _, v := range m {
		t += v /*sprintvet:ignore nondeterminism*/ // want `a reason is required` `floating-point accumulation into t inside map iteration`
	}
	return t
}
