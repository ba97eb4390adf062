// Package localph is the public facade of this repository: a Go
// implementation of the locally polynomial hierarchy of Reiter's
// "A LOCAL View of the Polynomial Hierarchy" (PODC 2024).
//
// The heavy lifting lives in the internal packages; this facade re-exports
// the types and constructors a downstream user needs:
//
//   - labeled graphs, identifier assignments, and structural
//     representations (internal/graph, internal/structure);
//   - locally polynomial machines in two flavors — the faithful
//     three-tape distributed Turing machines of Section 4 (internal/dtm)
//     and the practical functional engine (internal/simulate);
//   - the hierarchy itself: arbiters, levels, certificate bounds, and the
//     Eve/Adam game evaluation (internal/core, internal/cert);
//   - the logic with bounded quantifiers and the Section 5.2 example
//     formulas (internal/logic);
//   - locally polynomial reductions, including the distributed Cook–Levin
//     machinery (internal/reduce);
//   - pictures and tiling systems (internal/pictures).
//
// See examples/ for end-to-end usage and DESIGN.md for the map from paper
// sections to packages.
package localph

import (
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/logic"
	"repro/internal/simulate"
	"repro/internal/structure"
)

// Graph is a finite, simple, undirected, connected, labeled graph.
type Graph = graph.Graph

// Edge is an undirected edge between node indices.
type Edge = graph.Edge

// IDAssignment maps nodes to identifier bit strings.
type IDAssignment = graph.IDAssignment

// NewGraph constructs and validates a labeled graph.
func NewGraph(n int, edges []Edge, labels []string) (*Graph, error) {
	return graph.New(n, edges, labels)
}

// SmallLocallyUnique constructs the small rid-locally unique identifier
// assignment of Remark 3.
func SmallLocallyUnique(g *Graph, rid int) IDAssignment {
	return graph.SmallLocallyUnique(g, rid)
}

// Rep is the structural representation $G of a labeled graph (Figure 5).
type Rep = structure.Rep

// NewRep builds $G.
func NewRep(g *Graph) *Rep { return structure.NewRep(g) }

// Machine is a synchronous distributed algorithm in functional form.
type Machine = simulate.Machine

// Input is a node's initial local information.
type Input = simulate.Input

// Run executes a machine on a graph; see simulate.Run.
var Run = simulate.Run

// Decide runs a machine without certificates and reports unanimous
// acceptance.
var Decide = simulate.Decide

// Arbiter is a locally polynomial machine together with its level and
// certificate bound: the central object of the locally polynomial
// hierarchy (Section 4).
type Arbiter = core.Arbiter

// Level identifies a class Σ^lp_ℓ or Π^lp_ℓ.
type Level = core.Level

// Sigma and Pi name hierarchy levels.
var (
	Sigma = core.Sigma
	Pi    = core.Pi
)

// Strategy produces a player's certificate assignment.
type Strategy = core.Strategy

// Engine configures a game evaluation (worker pool, memo table,
// optimization layers); the zero value is the optimized default.
type Engine = core.Engine

// Prepare builds the per-(graph, identifier) instance games are played
// on (see Arbiter.Value).
var Prepare = simulate.Prepare

// CertAssignment is a certificate assignment κ.
type CertAssignment = cert.Assignment

// CertBound is the (r,p) certificate-size bound.
type CertBound = cert.Bound

// Polynomial is a nonnegative-coefficient polynomial used in bounds.
type Polynomial = cert.Polynomial

// Formula is a formula of the logic of Section 5.
type Formula = logic.Formula

// EvalOptions configure second-order enumeration.
type EvalOptions = logic.Options

// SatFormula evaluates a sentence on a structure.
var SatFormula = logic.Sat
