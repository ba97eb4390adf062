// Package core implements the paper's primary contribution: the locally
// polynomial hierarchy {Σ^lp_ℓ, Π^lp_ℓ} of Section 4. A graph property L
// belongs to Σ^lp_ℓ when some locally polynomial machine M (the arbiter)
// satisfies, for every graph G and rid-locally unique identifier
// assignment id,
//
//	G ∈ L  ⇔  ∃κ1 ∀κ2 … Qκℓ : M(G, id, κ1·…·κℓ) ≡ accept,
//
// with all quantifiers ranging over (r,p)-bounded certificate assignments.
// Π^lp_ℓ starts with a universal quantifier instead.
//
// The package provides:
//
//   - Arbiter: a machine together with its level, identifier radius and
//     certificate bound;
//   - one game evaluator, Arbiter.Value, which plays the game either
//     exhaustively over finite certificate domains (for the small
//     instances used in tests and experiments) or with Eve's moves
//     produced by the constructive strategies from the paper's proofs,
//     under a configurable Engine;
//   - machine combinators (Product, WithPrecondition) used to realize the
//     constructions in the proof of Lemma 11 (restrictive arbiters).
package core

import (
	"encoding/json"
	"fmt"
	"sync"

	"repro/internal/cert"
	"repro/internal/graph"
	"repro/internal/search"
	"repro/internal/simulate"
)

// Class names for the lowest hierarchy levels, for display purposes.
const (
	ClassLP     = "LP"     // Σ^lp_0 = Π^lp_0
	ClassNLP    = "NLP"    // Σ^lp_1
	ClassCoLP   = "coLP"   // complement of LP
	ClassCoNLP  = "coNLP"  // complement of NLP
	ClassPi1Lp  = "Π^lp_1" // first universal level
	ClassSig3Lp = "Σ^lp_3"
)

// Level identifies a class of the locally polynomial hierarchy.
type Level struct {
	// Alternations is ℓ, the number of certificate assignments.
	Alternations int
	// FirstExistential selects Σ^lp_ℓ (true, Eve moves first) or Π^lp_ℓ
	// (false, Adam moves first). Irrelevant when Alternations == 0.
	FirstExistential bool
}

// Sigma returns the level Σ^lp_ℓ.
func Sigma(l int) Level { return Level{Alternations: l, FirstExistential: true} }

// Pi returns the level Π^lp_ℓ.
func Pi(l int) Level { return Level{Alternations: l, FirstExistential: false} }

// String renders the level, e.g. "Σ^lp_3".
func (l Level) String() string {
	if l.Alternations == 0 {
		return "LP"
	}
	if l.FirstExistential {
		return fmt.Sprintf("Σ^lp_%d", l.Alternations)
	}
	return fmt.Sprintf("Π^lp_%d", l.Alternations)
}

// ExistentialAt reports whether the i-th certificate assignment (1-based)
// is chosen by Eve (existentially quantified).
func (l Level) ExistentialAt(i int) bool {
	if l.FirstExistential {
		return i%2 == 1
	}
	return i%2 == 0
}

// Arbiter bundles a locally polynomial machine with the parameters under
// which it arbitrates a property: the level, the identifier radius rid,
// and the (r,p) certificate bound.
type Arbiter struct {
	Machine  *simulate.Machine
	Level    Level
	RadiusID int
	Bound    cert.Bound
}

// Run executes the arbiter's machine under the given certificate
// assignments and reports unanimous acceptance.
func (a *Arbiter) Run(g *graph.Graph, id graph.IDAssignment, assigns ...cert.Assignment) (bool, error) {
	res, err := simulate.Run(a.Machine, g, id, cert.NodeLists(assigns...), simulate.Options{})
	if err != nil {
		return false, err
	}
	return res.Accepted(), nil
}

// Strategy produces a certificate assignment for a player given the
// opponent's previous moves (moves[0] = κ1, …). Eve's constructive
// strategies from the paper's proofs (spanning trees, charges, colorings)
// implement this type.
//
// Implementations must be pure functions of their arguments: under a
// parallel engine a strategy below Adam's fanned-out universal level is
// invoked concurrently from several workers, and the moves entries may
// alias pooled buffers that are overwritten once the call returns — so a
// strategy must not share mutable state across calls and must not retain
// moves or its entries.
type Strategy func(g *graph.Graph, id graph.IDAssignment, moves []cert.Assignment) (cert.Assignment, error)

// Value evaluates the alternating certificate game on the prepared
// instance and reports whether the first player to move — Eve for Σ
// levels, Adam for Π levels — achieves her/his objective:
//
//	Q1 κ1 Q2 κ2 … : M(G, id, κ1·…·κℓ) ≡ accept
//
// with Q1 Q2 … the level's quantifier prefix and move i+1 ranging over
// domains[i] (len(domains) must equal the level's number of
// alternations).
//
// With strategies == nil the game is exhaustive: every level enumerates
// its domain. Otherwise Eve's moves come from strategies: strategies[i]
// and domains[i] correspond to move i+1, an existential move needs a
// strategy, and a universal move needs a non-empty domain and no
// strategy. The slots are checked before any move is played. A true
// strategy-game value means Eve's strategies defeat every Adam play —
// which witnesses membership, since a winning strategy is in particular
// a witness for each ∃. The converse (false ⇒ non-membership) holds only
// when the strategies are optimal, as the paper's constructions are.
//
// The engine selects the worker pool, the memo table and the
// optimization layers (see Engine); every configuration computes the
// same value. The outermost level whose space the engine considers worth
// splitting is handed to the worker pool (short-circuit Exists for Eve,
// ForAll for Adam; Eve's strategy moves never branch), levels below it
// are enumerated sequentially within each worker, and every leaf runs
// against prep, so the per-(graph, id) setup is paid once for the whole
// game tree — and once across games when the caller caches prep.
// Strategy games are memoized only as a whole (quantifier-prefix
// subgames depend on the opaque strategy closures) and only when the
// engine carries a non-empty Salt naming the strategies; they never use
// symmetry pruning.
func (a *Arbiter) Value(prep *simulate.Prepared, strategies []Strategy, domains []cert.Domain, e Engine) (bool, error) {
	ev, err := newGameEval(a, prep, strategies, domains, e)
	if err != nil {
		return false, err
	}
	if len(domains) == 0 {
		return ev.leaf(nil)
	}
	chosen := make([]cert.Assignment, len(ev.enums))
	//lint:coarse allocation pass bounded by the level's alternation depth
	for i, en := range ev.enums {
		chosen[i] = make(cert.Assignment, en.Len())
	}
	run := func() (bool, error) { return ev.eval(chosen, 1, e, true) }
	if strategies != nil && ev.seed != "" {
		// Level index 0 is reserved for whole strategy games, so the key
		// can never collide with an exhaustive subgame key (i >= 1) of the
		// same seed.
		return e.Memo.Do(e.Opts.Ctx, subkey(ev.seed, 0, nil), run)
	}
	return run()
}

// gameEval carries the state shared by every worker of one game
// evaluation: the prepared simulation instance, the compiled per-level
// domains, the optimization-layer state derived from the Engine (memo
// seed, collected automorphisms, packed innermost enumerator, pooled
// leaf buffers), and the first error raised by any leaf.
type gameEval struct {
	a     *Arbiter
	prep  *simulate.Prepared
	enums []*cert.Enum
	// strategies plays Eve's moves (nil in an exhaustive game; see
	// Arbiter.Value).
	strategies []Strategy

	// seed is the memo key fingerprint ("" when memoization is off or
	// the machine is unnamed; see evalSeed).
	seed string
	// auts/autInv are the collected value-preserving automorphisms and
	// their inverses (nil when symmetry pruning is off; see sym.go).
	auts   [][]int
	autInv [][]int
	// packed enumerates the innermost quantifier domain as a mixed-radix
	// word (nil when the domain does not fit or bitsets are off).
	packed *cert.Packed
	// leafPool holds pooled per-worker leaf buffers (nil in reference
	// mode, which then runs leaves through simulate.Prepared.Run).
	leafPool *search.Scratch[*leafScratch]

	errOnce sync.Once
	err     error
}

// leafScratch is one worker's leaf-execution buffer set: the per-node
// certificate lists (lists[u] aliases flat) and the simulate scratch.
type leafScratch struct {
	lists [][]string
	flat  []string
	sim   *simulate.Scratch
}

// newGameEval checks the move slots, compiles the domains and derives
// the optimization-layer state the engine enables. Strategy games never
// use symmetry pruning: a Strategy observes node indices through the
// graph, so its replies need not be equivariant under the automorphisms,
// and orbit pruning of Adam's moves would be unsound.
func newGameEval(a *Arbiter, prep *simulate.Prepared, strategies []Strategy, domains []cert.Domain, eng Engine) (*gameEval, error) {
	l := a.Level.Alternations
	if len(domains) != l {
		return nil, fmt.Errorf("core: %d domains for level %v", len(domains), a.Level)
	}
	if strategies != nil && len(strategies) != l {
		return nil, fmt.Errorf("core: %d strategies for level %v", len(strategies), a.Level)
	}
	ev := &gameEval{a: a, prep: prep, strategies: strategies, enums: make([]*cert.Enum, l)}
	//lint:coarse slot check and domain compilation bounded by the level's alternation depth
	for i, d := range domains {
		ev.enums[i] = d.Enum()
		if strategies == nil {
			continue
		}
		switch {
		case a.Level.ExistentialAt(i + 1):
			if strategies[i] == nil {
				return nil, fmt.Errorf("core: move %d is existential but has no strategy", i+1)
			}
		case strategies[i] != nil:
			return nil, fmt.Errorf("core: move %d is universal but has a strategy", i+1)
		case ev.enums[i].Len() == 0:
			return nil, fmt.Errorf("core: move %d is universal but has no domain", i+1)
		}
	}
	if l > 0 {
		if last := ev.enums[l-1]; !eng.NoBitset && last.Len() > 0 {
			ev.packed, _ = last.Pack()
		}
		if !eng.NoSymmetry && strategies == nil {
			ev.initSymmetry()
		}
		if eng.Memo != nil && (strategies == nil || eng.Salt != "") {
			ev.seed = evalSeed(a, prep, ev.enums, eng.Salt)
		}
	}
	if !eng.NoPool {
		n := prep.Graph().N()
		ev.leafPool = search.NewScratch(func() *leafScratch {
			ls := &leafScratch{
				lists: make([][]string, n),
				flat:  make([]string, n*l),
				sim:   prep.NewScratch(),
			}
			for u := 0; u < n; u++ {
				ls.lists[u] = ls.flat[u*l : (u+1)*l : (u+1)*l]
			}
			return ls
		})
	}
	return ev, nil
}

func (ev *gameEval) fail(err error) {
	ev.errOnce.Do(func() { ev.err = err })
}

// leaf executes the arbiter's machine on fully chosen certificates. The
// game levels are the unit of parallelism, so each leaf runs its nodes
// sequentially (identical results either way; see simulate). With the
// pool enabled the run goes through simulate.Prepared.RunAccepted on
// checked-out buffers; reference mode pays the allocating Run path.
func (ev *gameEval) leaf(chosen []cert.Assignment) (bool, error) {
	if ev.leafPool == nil {
		res, err := ev.prep.Run(ev.a.Machine, cert.NodeLists(chosen...), simulate.Options{Sequential: true})
		if err != nil {
			return false, err
		}
		return res.Accepted(), nil
	}
	ls, release := ev.leafPool.Get()
	defer release()
	var lists [][]string
	if len(chosen) > 0 {
		lists = ls.lists
		for u := range lists {
			row := lists[u]
			for j, a := range chosen {
				row[j] = a[u]
			}
		}
	}
	return ev.prep.RunAccepted(ev.a.Machine, lists, 0, ls.sim)
}

// eval evaluates quantifier levels i..ℓ; chosen holds one assignment
// slot per level, with chosen[0..i-2] the moves already played above.
// In a strategy game an existential level is Eve's strategy move: it is
// stored in chosen[i-1] and play continues below without branching.
// Exhaustive subgames at the outer levels are served from the memo table
// when one is configured — the whole-game entry (i == 1, empty prefix)
// is the warm-path hit that makes repeated evaluations of the same game
// a single table lookup. par marks that no enclosing level has been
// fanned out yet (see evalLevel).
func (ev *gameEval) eval(chosen []cert.Assignment, i int, e Engine, par bool) (bool, error) {
	if i > len(ev.enums) {
		return ev.leaf(chosen)
	}
	if ev.strategies != nil {
		if ev.a.Level.ExistentialAt(i) {
			k, err := ev.strategies[i-1](ev.prep.Graph(), ev.prep.ID(), append([]cert.Assignment(nil), chosen[:i-1]...))
			if err != nil {
				return false, err
			}
			chosen[i-1] = k
			return ev.eval(chosen, i+1, e, par)
		}
		return ev.evalLevel(chosen, i, e, par)
	}
	if ev.seed != "" && i <= memoMaxLevel {
		return e.Memo.Do(e.Opts.Ctx, subkey(ev.seed, i, chosen[:i-1]), func() (bool, error) {
			return ev.evalLevel(chosen, i, e, par)
		})
	}
	return ev.evalLevel(chosen, i, e, par)
}

// evalLevel enumerates quantifier level i. par marks that no enclosing
// level has been fanned out yet, so the first level the engine considers
// splittable claims the worker pool (levels with tiny spaces pass the
// pool down to the bigger levels beneath them); everything below a
// fan-out runs sequentially within its worker. At the outermost level
// choices that are not the lexicographic minimum of their automorphism
// orbit are skipped (value-preserving; see sym.go), and the innermost
// level runs on the packed mixed-radix enumerator when the domain fits
// a word.
func (ev *gameEval) evalLevel(chosen []cert.Assignment, i int, e Engine, par bool) (bool, error) {
	existential := ev.a.Level.ExistentialAt(i)
	enum := ev.enums[i-1]
	space := enum.Space()
	sym := i == 1 && len(ev.autInv) > 0
	if par && search.Splittable(e.Opts, space) {
		// Fan this level out across the pool. chosen[0..i-2] are shared
		// read-only (the enclosing sequential enumerators only decode
		// again after the pool drains); each worker gets pooled buffers
		// for this level and the ones below it.
		prefix := chosen[:i-1]
		scratch := search.NewScratch(func() []cert.Assignment {
			suffix := make([]cert.Assignment, len(ev.enums)-(i-1))
			//lint:coarse allocation pass bounded by the level's alternation depth
			for j := range suffix {
				suffix[j] = make(cert.Assignment, ev.enums[i-1+j].Len())
			}
			return suffix
		})
		pred := func(choices []int) bool {
			if sym && ev.symSkip(choices) {
				// A pruned choice must not decide the quantifier: it
				// neither witnesses the ∃ nor refutes the ∀.
				return !existential
			}
			suffix, release := scratch.Get()
			defer release()
			child := make([]cert.Assignment, 0, len(ev.enums))
			child = append(append(child, prefix...), suffix...)
			enum.Decode(choices, child[i-1])
			v, err := ev.eval(child, i+1, e, false)
			if err != nil {
				ev.fail(err)
				// Short-circuit the enclosing quantifier so the pool
				// drains: a witness for ∃, a counterexample for ∀.
				return existential
			}
			return v
		}
		var val bool
		var err error
		if existential {
			val, err = search.Exists(e.Opts, space, pred)
		} else {
			val, err = search.ForAll(e.Opts, space, pred)
		}
		if ev.err != nil {
			return false, ev.err
		}
		if err != nil {
			return false, err
		}
		return val, nil
	}
	if i == len(ev.enums) && ev.packed != nil && !sym {
		return ev.evalPackedLeaves(chosen, i, e, existential)
	}
	// Existential: succeed if some choice works. Universal: fail if
	// some choice fails.
	found := existential // value if enumeration exhausts: ¬∃ => false, ∀ => true
	var innerErr error
	complete := search.ForEach(space, func(choices []int) bool {
		// Mirror the ctx polling of the parallel branch so cancellation
		// reaches sequential evaluations too.
		if e.Opts.Ctx != nil {
			if innerErr = e.Opts.Ctx.Err(); innerErr != nil {
				return false
			}
		}
		if sym && ev.symSkip(choices) {
			return true
		}
		enum.Decode(choices, chosen[i-1])
		v, err := ev.eval(chosen, i+1, e, par)
		if err != nil {
			innerErr = err
			return false
		}
		if existential && v {
			found = true
			return false // short-circuit ∃
		}
		if !existential && !v {
			found = false
			return false // short-circuit ∀
		}
		return true
	})
	if innerErr != nil {
		return false, innerErr
	}
	if complete {
		// Enumeration exhausted: ∃ failed, or ∀ succeeded.
		return !existential, nil
	}
	return found, nil
}

// evalPackedLeaves enumerates the innermost quantifier level with the
// packed mixed-radix counter: every step rewrites only the certificate
// strings touched by the carry and goes straight to a leaf run, which is
// where a game evaluation spends almost all of its time.
func (ev *gameEval) evalPackedLeaves(chosen []cert.Assignment, i int, e Engine, existential bool) (bool, error) {
	var innerErr error
	complete := ev.packed.ForEach(chosen[i-1], func(cert.Assignment) bool {
		// One cancellation poll per leaf, matching the unpacked walk (a
		// leaf is a full machine run, so the atomic load is noise).
		if e.Opts.Ctx != nil {
			if innerErr = e.Opts.Ctx.Err(); innerErr != nil {
				return false
			}
		}
		v, err := ev.leaf(chosen)
		if err != nil {
			innerErr = err
			return false
		}
		// Continue while the quantifier is undecided: ∃ until a witness,
		// ∀ until a counterexample.
		return v != existential
	})
	if innerErr != nil {
		return false, innerErr
	}
	if complete {
		return !existential, nil
	}
	return existential, nil
}

// encodeTuple/decodeTuple pack several machine messages into one (used by
// the Product combinator). JSON keeps the encoding unambiguous; the formal
// model would expand the alphabet encoding, which is immaterial here.
func encodeTuple(parts []string) string {
	b, err := json.Marshal(parts)
	if err != nil {
		// Unreachable: strings always marshal.
		panic(err)
	}
	return string(b)
}

func decodeTuple(s string, n int) []string {
	out := make([]string, n)
	if s == "" {
		return out
	}
	var parts []string
	if err := json.Unmarshal([]byte(s), &parts); err != nil {
		return out
	}
	copy(out, parts)
	return out
}

type productState struct {
	states []any
	halted []bool
	degree int
}

// Product runs several machines in lockstep on the same graph: each round,
// every component machine performs its round, and the component messages
// are packed into tuple messages. The product halts at a node when all
// components have halted there. combine merges the component outputs into
// the product's output; the default conjoins verdicts ("1" iff all "1").
func Product(name string, combine func(outputs []string) string, machines ...*simulate.Machine) *simulate.Machine {
	if combine == nil {
		combine = func(outputs []string) string {
			for _, o := range outputs {
				if o != "1" {
					return "0"
				}
			}
			return "1"
		}
	}
	return &simulate.Machine{
		Name: name,
		Init: func(in simulate.Input) any {
			ps := &productState{
				states: make([]any, len(machines)),
				halted: make([]bool, len(machines)),
				degree: in.Degree,
			}
			for i, m := range machines {
				ps.states[i] = m.Init(in)
			}
			return ps
		},
		Round: func(st any, round int, recv []string) ([]string, bool) {
			ps := st.(*productState)
			// Unpack tuple messages per component.
			perComp := make([][]string, len(machines))
			for i := range machines {
				perComp[i] = make([]string, len(recv))
			}
			for j, msg := range recv {
				parts := decodeTuple(msg, len(machines))
				for i := range machines {
					perComp[i][j] = parts[i]
				}
			}
			sends := make([][]string, len(machines))
			allHalt := true
			for i, m := range machines {
				if ps.halted[i] {
					sends[i] = make([]string, ps.degree)
					continue
				}
				out, halt := m.Round(ps.states[i], round, perComp[i])
				send := make([]string, ps.degree)
				copy(send, out)
				sends[i] = send
				ps.halted[i] = halt
				if !halt {
					allHalt = false
				}
			}
			// Pack tuples per neighbor.
			out := make([]string, ps.degree)
			for j := 0; j < ps.degree; j++ {
				parts := make([]string, len(machines))
				for i := range machines {
					parts[i] = sends[i][j]
				}
				out[j] = encodeTuple(parts)
			}
			return out, allHalt
		},
		Output: func(st any) string {
			ps := st.(*productState)
			outs := make([]string, len(machines))
			for i, m := range machines {
				outs[i] = m.Output(ps.states[i])
			}
			return combine(outs)
		},
	}
}

// WithPrecondition implements the first step of the Lemma 11 conversion:
// given a machine main operating on graphs of an LP-property K and an
// LP-decider kDecider for K, it returns a machine on arbitrary graphs that
// accepts iff both accept — so the combined machine accepts exactly
// L ∩ K when main arbitrates L on K.
func WithPrecondition(main, kDecider *simulate.Machine) *simulate.Machine {
	return Product(main.Name+"|pre:"+kDecider.Name, nil, main, kDecider)
}
