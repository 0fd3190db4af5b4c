package main

import (
	"math/rand"
	"slices"

	"fesia/internal/baselines"
	"fesia/internal/datasets"
	"fesia/internal/graph"
)

// Workload inputs. Each generator takes only the run's seed, so the same
// seed gives byte-identical inputs. Sizes and class mixes are fixed; the
// seed moves only the contents, so runs with different seeds do the same
// amount of work.

// The pairs pool: balanced pairs at every side length for both selectivity
// classes, about 11M elements, so that the built sets (about 22 bytes per
// element) are twice a 105 MiB last-level cache and pairs come from memory.
var (
	pairSides         = []int{1 << 18, 1 << 19, 1 << 20, 1 << 20}
	pairSelectivities = []float64{0.01, 0.5}
)

type pairInput struct {
	a, b []uint32
	sel  float64
}

// genPairs returns the pool with the two selectivity classes interleaved.
func genPairs(seed int64) []pairInput {
	rng := rand.New(rand.NewSource(seed))
	var out []pairInput
	for _, n := range pairSides {
		for _, sel := range pairSelectivities {
			a, b := datasets.GenPairSelectivity(rng, n, n, sel, uint32(8*n))
			out = append(out, pairInput{a, b, sel})
		}
	}
	return out
}

// graphNodes scales the LiveJournal-like graph of datasets.StandardGraphs
// (mean degree 16, clustering 0.5) down to where one full count takes a
// fraction of a second, so a run times tens of counts; it fits in cache.
const graphNodes = 40_000

// genGraph returns the oriented (forward-neighbor) CSR of a seeded
// LiveJournal-like power-law graph.
func genGraph(seed int64) *graph.CSR {
	g := datasets.NewGraph(datasets.GraphConfig{Nodes: graphNodes, EdgesPer: 8, Clustering: 0.5, Seed: seed})
	return graph.FromEdges(g.Nodes, g.Edges).Oriented()
}

// The search corpus: a Zipf document corpus whose postings (about 6.7M)
// make a working set well above the cache, and a fixed-size query stream.
const (
	corpusDocs    = 200_000
	corpusItems   = 100_000
	corpusMeanLen = 40
	numQueries    = 4096
)

// served is a corpus and a query stream as the serving tier sees them: one
// sorted list per item id, queries as item-id tuples, each query's reference
// count and its input size in elements.
type served struct {
	lists   [][]uint32
	queries [][]uint32
	want    []int
	elems   []int
}

// genSearch returns the seeded corpus and its query stream. Each query has
// 2-4 distinct terms drawn with probability proportional to posting length,
// as popular terms are in real query logs.
func genSearch(seed int64) *served {
	c := datasets.NewCorpus(datasets.CorpusConfig{
		NumDocs: corpusDocs, NumItems: corpusItems, MeanLen: corpusMeanLen, Seed: seed,
	})
	lists := make([][]uint32, corpusItems)
	for item, l := range c.Postings {
		lists[item] = l
	}
	cum := make([]int64, len(lists))
	var total int64
	for i, l := range lists {
		total += int64(len(l))
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(seed + 1))
	queries := make([][]uint32, numQueries)
	for i := range queries {
		k := 2 + i%3
		q := make([]uint32, 0, k)
		for len(q) < k {
			j, _ := slices.BinarySearch(cum, rng.Int63n(total)+1)
			if !slices.Contains(q, uint32(j)) {
				q = append(q, uint32(j))
			}
		}
		queries[i] = q
	}
	return newServed(lists, queries)
}

// newServed computes each query's reference count with the branch-free
// scalar merge.
func newServed(lists [][]uint32, queries [][]uint32) *served {
	s := &served{lists: lists, queries: queries,
		want: make([]int, len(queries)), elems: make([]int, len(queries))}
	ls := make([][]uint32, 0, 4)
	for i, q := range queries {
		ls = ls[:0]
		for _, it := range q {
			ls = append(ls, lists[it])
			s.elems[i] += len(lists[it])
		}
		s.want[i] = baselines.CountScalarK(ls)
	}
	return s
}
