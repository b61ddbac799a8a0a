"""Finitely presented consequence systems and bounded derivability.

A calculus presentation (axiom schemas plus inference rules) induces a
closure map on sets of formulas. Everything here is bounded: closure runs a
fixed number of rounds, instantiates schemas only over a small pool of
candidate formulas, and truncates deterministically at the set cap. Negative
answers therefore never claim underivability, only underivability within the
given fuel.

The round operator F is a pure, monotone function of the current set: each
round adds (a) every axiom-schema instance whose values come from the pool
(subformulas of the current set up to a size threshold, the schema variables
x1..xm of the presentation, the signature constants, and any caller-supplied
seed formulas) and (b) every rule instance whose premise instances are all
present, its conclusion-only variables filled from the pool by the same loop
and tiers as axiom variables. For every calculus the DSL accepts, closure is
literally F iterated whenever no round is cut by the set cap, the staging
quota or the work budget, so extensivity, monotonicity, cut at doubled fuel,
and bounded idempotence then hold by construction. A round the work budget
or the staging quota cuts is never retried: instances it did not reach over
its delta or its pool stay missing, even an axiom that fits the size cap.

Presentations are hash-consed like formulas, through syntax's one value
table (the Interned base): equal presentations are one object, so they
share one axiom-instance memo within a process.

closure_bounded is a pure function of (presentation, premise set, fuel, seed
set), so its results are kept in the one memo (syntax.MEMO), one slot per
premise, seed and member. Premises are checked on every call, so a memoised
call raises exactly what a fresh one would. derives is not memoised, and
stops as soon as its answer is fixed: it decides the round its goal
appears in, or the last round it could appear in, without admitting that
round, and ends a round at the goal's staging once a count of the
formulas that could sort before the goal shows it will be admitted
(_Engine.run). Before it builds an engine, it answers a goal among its
premises at depth 0, and asks the two-valued matrices sound for its
presentation, searched once per presentation and kept in the memo at one
slot; a goal one of them separates from the premises is a bounded
negative at every fuel, so it is answered without a closure. Fibring asks
the same question of the union presentation (fibring.fibred_derives).

Every link check's evidence comes from one kernel, transfer_evidence: one
bounded scan of the corpus premise sets that fit the set cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import combinations, product
from math import prod
from typing import Callable, Iterable, Mapping, Sequence

from . import syntax
from .errors import CapExceeded, ConfigError, LanguageError, SignatureError
from .syntax import (
    Formula,
    Interned,
    Signature,
    Symbol,
    apply_symbol,
    by_sort_key,
    enumerate_formulas,
    formula_in_language,
    signature_leq,
    substitute,
    svar,
)


@dataclass(frozen=True)
class Fuel:
    """Resource bounds for one bounded-closure computation: three whole
    numbers >= 1, or the constructor raises ValueError."""

    max_closure_rounds: int = 6
    max_formula_size: int = 31
    max_set_size: int = 512

    def __post_init__(self) -> None:
        fields = (self.max_closure_rounds, self.max_formula_size, self.max_set_size)
        if any(type(n) is not int for n in fields):
            raise ValueError("all fuel fields must be whole numbers")
        if min(fields) < 1:
            raise ValueError("all fuel fields must be positive")

    @property
    def pool_size(self) -> int:
        """Size threshold for formulas admitted into the instantiation pool."""
        return max(1, self.max_formula_size // 8)

    @property
    def wide_pool_size(self) -> int:
        """Tighter value threshold for schemas with three or more variables
        filled from the pool (an axiom's, or a rule's conclusion-only ones),
        whose instantiation space grows cubically."""
        return max(1, self.max_formula_size // 16)

    @property
    def bare_size(self) -> int:
        """Size threshold for candidates of bare-variable premises."""
        return max(self.pool_size, self.max_formula_size // 4)

    def doubled(self) -> "Fuel":
        """Twice the rounds at the same language caps; the round operator is
        unchanged, so iterating it twice as long is the exact composition."""
        return Fuel(
            2 * self.max_closure_rounds,
            self.max_formula_size,
            self.max_set_size,
        )

    def widened(self) -> "Fuel":
        """Twice the rounds and twice the language caps, for checks whose
        re-derivations involve larger formulas (e.g. substitution images)."""
        return Fuel(
            2 * self.max_closure_rounds,
            2 * self.max_formula_size,
            2 * self.max_set_size,
        )

    def escalated(self) -> "Fuel":
        """A generous bound used when hunting for counter-evidence."""
        return Fuel(
            4 * self.max_closure_rounds,
            2 * self.max_formula_size,
            8 * self.max_set_size,
        )


@dataclass(frozen=True)
class Derived:
    """Definitive verdict: the goal appeared in round `depth`."""

    depth: int

    @property
    def is_derived(self) -> bool:
        return True


@dataclass(frozen=True)
class NotDerivedWithin:
    """Bounded negative: not found within `bound`; not a refutation."""

    bound: Fuel

    @property
    def is_derived(self) -> bool:
        return False


Verdict = Derived | NotDerivedWithin


@dataclass(frozen=True)
class Rule:
    """An inference rule schema; premise-free rules are axiom schemas."""

    name: str
    premises: tuple[Formula, ...]
    conclusion: Formula

    def schemas(self) -> Iterable[Formula]:
        yield from self.premises
        yield self.conclusion


def _pool_variables(rule: Rule) -> tuple[list[int], list[int]]:
    """The conclusion's variables in no premise, which the pool fills,
    sorted, and how often each occurs."""
    bound = frozenset().union(*(p.variables for p in rule.premises))
    occurrences = [n.var for n in rule.conclusion.subformulas() if n.var is not None and n.var not in bound]
    varlist = sorted(set(occurrences))
    return varlist, [occurrences.count(v) for v in varlist]


def _lookahead_position(pats: Sequence[Formula], i: int) -> int | None:
    """The first k with pats[i].args[k] the bare variable pats[i + 1]."""
    if i + 1 < len(pats) and pats[i + 1].var is not None:
        for k, arg in enumerate(pats[i].args):
            if arg is pats[i + 1]:
                return k
    return None


class CalculusPresentation(Interned):
    """A signature with axiom schemas, rules, and an optional negation.

    Interned (syntax.Interned): building a presentation whose signature,
    sorted axioms, sorted rules and negation equal one already built returns
    that object, so equality is identity and the plans, look-ahead and
    axiom-instance memo are built once per content. Invalid ones always
    raise: an axiom with premises or a rule without any (which could never
    fire), a schema outside the signature, a negation that is not one of
    its unary symbols. No attribute can be set.
    """

    __slots__ = (
        "sig",
        "axioms",
        "rules",
        "negation",
        "_base_var_count",
        "_inst_memo",
        "_plans",
        "_lookahead",
        "_axiom_meta",
        "_rule_meta",
    )

    @staticmethod
    def _content(
        sig: Signature,
        axioms: Iterable[Rule] = (),
        rules: Iterable[Rule] = (),
        negation: Symbol | None = None,
    ) -> tuple:
        axioms = tuple(sorted(axioms, key=lambda r: (r.name, r.conclusion.sort_key)))
        rules = tuple(sorted(rules, key=lambda r: (r.name, tuple(p.sort_key for p in r.schemas()))))
        return sig, axioms, rules, negation

    def _build(self, sig, axioms, rules, negation) -> None:
        for rule in axioms:
            if rule.premises:
                raise ValueError(f"axiom {rule.name!r} has premises")
        for rule in rules:
            if not rule.premises:
                raise ValueError(f"rule {rule.name!r} has no premises")
        maxvar = 2
        for rule in axioms + rules:
            for schema in rule.schemas():
                if not formula_in_language(schema, sig):
                    raise LanguageError(f"schema of {rule.name!r} {schema.text} is not in the given language")
                maxvar = max((maxvar, *schema.variables))
        if negation is not None and (negation.arity != 1 or negation not in sig):
            raise ConfigError(f"designated negation {negation} must be unary in the signature")
        # premise evaluation order: structured patterns first, bare variables last
        plans = tuple(
            tuple(sorted(range(len(r.premises)), key=lambda i: r.premises[i].var is not None))
            for r in rules
        )
        self._seal(
            sig=sig,
            axioms=axioms,
            rules=rules,
            negation=negation,
            _base_var_count=maxvar,
            # axiom instances, keyed by (axiom index, value 1, ..., value n)
            _inst_memo={},
            _plans=plans,
            # per plan level, the argument position at which a structured
            # premise holds the next level's bare premise, or None
            _lookahead=tuple(
                tuple(_lookahead_position([r.premises[j] for j in plan], i) for i in range(len(plan)))
                for r, plan in zip(rules, plans)
            ),
            # each axiom schema with its variables and their occurrence
            # counts, and each rule's conclusion-only variables with theirs
            _axiom_meta=[(r.conclusion, *_pool_variables(r)) for r in axioms],
            _rule_meta=[_pool_variables(r) for r in rules],
        )

    def with_axiom_formulas(self, formulas: Iterable[Formula]) -> "CalculusPresentation":
        """The presentation with each formula added as a premise-free rule,
        named onto_1, onto_2, ... in canonical order."""
        extra = [
            Rule(f"onto_{i}", (), phi)
            for i, phi in enumerate(sorted(set(formulas), key=by_sort_key), start=1)
        ]
        return CalculusPresentation(self.sig, self.axioms + tuple(extra), self.rules, self.negation)

    def __repr__(self) -> str:
        return (
            f"CalculusPresentation(axioms={[r.name for r in self.axioms]}, "
            f"rules={[r.name for r in self.rules]})"
        )


# ---------------------------------------------------------------------------
# The bounded closure engine


class _StagingFull(Exception):
    """Internal: the per-round staging budget is exhausted."""


class _GoalStaged(Exception):
    """Internal: the watched goal was staged in a round it is certain to be
    admitted in."""


def _formula_count(sig: Signature, leaves: int, size: int, cap: int) -> int:
    """The number of formulas of at most size nodes over sig's symbols of
    arity >= 1 and leaves leaves (variables and constants), or cap if that
    is smaller. Counted size by size, so it stops once cap is reached:
    exact[m] is the number of formulas of exactly m nodes, and tuples[k][m]
    (k >= 2) the number of k-tuples of formulas with m nodes in all."""
    arities = [arity for arity in sig.arities() if arity >= 1]
    exact = [0, leaves]
    tuples = {1: exact, **{k: [0] for k in range(2, max(arities, default=1) + 1)}}
    total, m = leaves, 1
    while total < cap and m < size:
        for k in range(2, len(tuples) + 1):
            shorter = tuples[k - 1]
            tuples[k].append(sum(exact[a] * shorter[m - a] for a in range(1, m)))
        count = sum(len(sig.level(arity)) * tuples[arity][m] for arity in arities)
        exact.append(count)
        total += count
        m += 1
    return min(total, cap)


class _Engine:
    def __init__(self, cal: CalculusPresentation, fuel: Fuel, extra_pool: Iterable[Formula]):
        self.cal = cal
        self.fuel = fuel
        self.size_cap = fuel.max_formula_size
        self.set_cap = fuel.max_set_size
        self.psize = fuel.pool_size
        self.wide_psize = fuel.wide_pool_size
        self.bare_cap = fuel.bare_size
        self.members: set[Formula] = set()
        self.by_head: dict[Symbol, list[Formula]] = {}
        self.bare_candidates: list[Formula] = []
        self.pool_old: list[Formula] = []
        self.emitted_closed_axioms = False
        self.seed_exempt = {node for phi in extra_pool for node in phi.subformulas()}
        seeds = {svar(i) for i in range(1, cal._base_var_count + 1)} | self.seed_exempt
        seeds.update(apply_symbol(c) for c in cal.sig.constants())
        self.pool: set[Formula] = set(seeds)
        self.pool_new: list[Formula] = sorted(seeds, key=by_sort_key)
        self.stage_quota = fuel.max_set_size
        self.work_left = 0
        # the goal whose staging ends the round (run sets it), or None
        self.stop_at: Formula | None = None

    def _stage(self, staged: set[Formula], phi: Formula) -> None:
        staged.add(phi)
        if phi is self.stop_at:
            raise _GoalStaged
        if len(staged) >= self.stage_quota:
            raise _StagingFull

    def _spend(self, amount: int = 1) -> None:
        self.work_left -= amount
        if self.work_left <= 0:
            self.work_left = 0
            raise _StagingFull

    # -- membership bookkeeping

    def _admit(self, batch: Sequence[Formula]) -> list[Formula]:
        """Add a canonically sorted batch, distinct and disjoint from the
        members (as premises and fresh formulas are), up to the set cap."""
        members = self.members
        room = self.set_cap - len(members)
        added: list[Formula] = []
        by_head = self.by_head
        bare_cap = self.bare_cap
        bare_candidates = self.bare_candidates
        pool = self.pool
        pool_new = self.pool_new
        psize = self.psize
        for phi in batch:
            if room <= 0:
                break
            members.add(phi)
            added.append(phi)
            room -= 1
            if phi.var is None:
                by_head.setdefault(phi.head, []).append(phi)
            if phi.size <= bare_cap:
                bare_candidates.append(phi)
            # grow the pool with small subtrees: only the frontier's roots
            # can be new, and small pool members are subformula-closed, so
            # present ones need no descent
            for sub in phi.frontier(psize):
                if sub in pool:
                    continue
                stack = [sub]
                while stack:
                    node = stack.pop()
                    if node not in pool:
                        pool.add(node)
                        pool_new.append(node)
                        stack.extend(node.args)
        pool_new.sort(key=by_sort_key)
        return added

    # -- pool instantiation

    def _fill(
        self, staged: set[Formula], schema: Formula, varlist: Sequence[int], occs: Sequence[int],
        budget: int, first_new: int, all_sorted: list[Formula],
        key: tuple = (), bind: Mapping[int, Formula] | None = None,
    ) -> None:
        """Stage every instance of schema whose variables varlist, occurring
        occs[i] times each, take pool values that add at most budget nodes.
        Positions before first_new range over the old pool, the one at it
        over the new pool, later ones over the whole pool (all_sorted), so
        -1 means the whole pool everywhere. A scan stops at its first value
        over the budget (values come smallest first) and skips values over
        the tier threshold (pool_size for up to two variables,
        wide_pool_size for more) that no seed supplied. Every value scanned
        costs one unit of work, as _spend charges it, and staging stop_at
        raises _GoalStaged, as _stage does. An axiom passes key =
        (its index,), under which its instances are memoised; a rule passes
        its premise bindings as bind, and its instances are not memoised."""
        if budget < 0:
            return
        old_sorted = self.pool_old
        new_sorted = self.pool_new
        memo = self.cal._inst_memo
        exempt = self.seed_exempt
        quota = self.stage_quota
        goal = self.stop_at
        stage = staged.add
        last = len(varlist) - 1
        vcap = self.psize if last < 2 else self.wide_psize
        work = self.work_left

        def level(pos: int, remaining: int, values: tuple) -> None:
            nonlocal work
            source = old_sorted if pos < first_new else new_sorted if pos == first_new else all_sorted
            occ = occs[pos]
            for value in source:
                work -= 1
                if work <= 0:
                    work = 0
                    raise _StagingFull
                size = value.size
                cost = occ * (size - 1)
                if cost > remaining:
                    break
                if size > vcap and value not in exempt:
                    continue
                if pos < last:
                    level(pos + 1, remaining - cost, values + (value,))
                    continue
                inst = values + (value,)
                if bind is None:
                    concl = memo.get(inst)
                    if concl is None:
                        concl = memo[inst] = substitute(schema, dict(zip(varlist, inst[1:])))
                else:
                    concl = substitute(schema, {**bind, **dict(zip(varlist, inst))})
                stage(concl)
                if concl is goal:
                    raise _GoalStaged
                if len(staged) >= quota:
                    raise _StagingFull

        try:
            level(0, budget, key)
        finally:
            self.work_left = work

    def _axiom_conclusions(self, staged: set[Formula], all_sorted: list[Formula]) -> None:
        """Stage every axiom instance with a value from the new pool, and
        each closed axiom in the first round."""
        for index, (schema, varlist, occs) in enumerate(self.cal._axiom_meta):
            if not varlist:
                if not self.emitted_closed_axioms and schema.size <= self.size_cap:
                    self._stage(staged, schema)
                continue
            budget = self.size_cap - schema.size
            for first_new in range(len(varlist)):
                self._fill(staged, schema, varlist, occs, budget, first_new, all_sorted, (index,))
        self.emitted_closed_axioms = True

    # -- rule firing

    def _match(self, pat: Formula, cand: Formula, bind: dict[int, Formula], trail: list[int]) -> bool:
        if pat.var is not None:
            bound = bind.get(pat.var)
            if bound is None:
                bind[pat.var] = cand
                trail.append(pat.var)
                return True
            return bound is cand
        if cand.var is not None or cand.head != pat.head:
            return False
        for p_child, c_child in zip(pat.args, cand.args):
            if not self._match(p_child, c_child, bind, trail):
                return False
        return True

    def _rule_conclusions(
        self, delta: Sequence[Formula], staged: set[Formula], pool_sorted: list[Formula]
    ) -> None:
        """Stage every rule instance with a premise in delta, or with a
        conclusion-only variable filled from the new pool.

        Each premise in turn drives: it ranges over delta, every other
        premise over the members. Conclusion-only variables go through
        _fill: over the whole pool in those joins, then, from round 2 on and
        if the pool grew, once per first-new position in one join over the
        members only (in round 1 the members are the delta).
        Every candidate scanned costs one unit of work, in enumeration
        order. A candidate over the size cap, or one that the plan's
        look-ahead rules out before matching (its argument for the next,
        bare premise is not in that premise's set), would match nothing
        further, so a run of them is charged in one bulk spend before the
        next candidate that is matched.
        """
        if not delta or not self.cal.rules:
            return
        delta_set = set(delta)
        delta_by_head: dict[Symbol, list[Formula]] = {}
        delta_bare: list[Formula] = []
        for phi in delta:
            if phi.var is None:
                delta_by_head.setdefault(phi.head, []).append(phi)
            if phi.size <= self.bare_cap:
                delta_bare.append(phi)
        members = self.members
        by_head = self.by_head
        bare_candidates = self.bare_candidates
        size_cap = self.size_cap
        spend = self._spend
        match = self._match
        fill = self._fill

        rules = zip(self.cal.rules, self.cal._plans, self.cal._lookahead, self.cal._rule_meta)
        for rule, plan, lookahead, (free, occs) in rules:
            n = len(plan)
            pats = [rule.premises[j] for j in plan]

            def join(i: int, drive: int, bind: dict[int, Formula]) -> None:
                if i == n:
                    concl = substitute(rule.conclusion, bind)
                    if not free:
                        if concl.size <= size_cap:
                            self._stage(staged, concl)
                        return
                    # concl still holds free; the members-only join is drive -1
                    budget = size_cap - concl.size
                    for first_new in range(len(free)) if drive < 0 else (-1,):
                        fill(staged, rule.conclusion, free, occs, budget, first_new, pool_sorted, bind=bind)
                    return
                pat = pats[i]
                from_delta = plan[i] == drive
                var = pat.var
                if var is not None:
                    bound = bind.get(var)
                    if bound is not None:
                        if bound.size <= size_cap and bound in (delta_set if from_delta else members):
                            spend()
                            join(i + 1, drive, bind)
                        return
                    # bare candidates are within Fuel.bare_size <= the size cap
                    for cand in delta_bare if from_delta else bare_candidates:
                        spend()
                        bind[var] = cand
                        join(i + 1, drive, bind)
                    bind.pop(var, None)
                    return
                k = lookahead[i]
                if k is not None:
                    ahead = delta_set if plan[i + 1] == drive else members
                skipped = 0
                for cand in (delta_by_head if from_delta else by_head).get(pat.head, ()):
                    if cand.size > size_cap or (k is not None and cand.args[k] not in ahead):
                        skipped += 1
                        continue
                    spend(skipped + 1)
                    skipped = 0
                    trail: list[int] = []
                    if match(pat, cand, bind, trail):
                        join(i + 1, drive, bind)
                    for v in trail:
                        del bind[v]
                if skipped:
                    spend(skipped)

            for drive in range(n):
                join(0, drive, {})
            if free and self.pool_old and self.pool_new:
                join(0, -1, {})

    # -- rounds

    def run(
        self,
        gamma: Sequence[Formula],
        watch: Formula | None = None,
    ) -> tuple[set[Formula], int | None]:
        """Close gamma, distinct premises in canonical order (_check_gamma).

        Returns the engine's own member set, not a copy, and, when watch is
        given, the round that admits it (0 for a premise), or None if none
        does. With watch, the run stops as soon as that answer is fixed,
        and the members it returns are those admitted by then:
        - a goal over the size cap that is not a premise is never staged;
        - once a round has generated, the goal is admitted exactly when it
          is fresh and fewer than room fresh formulas sort before it, and
          no later round starts after the last one or one whose fresh
          formulas fill the room, so that round is decided unadmitted;
        - every staged formula is over the signature, with variables among
          x1..x<base>, the premises' and the goal's, and one that sorts
          before the goal has at most as many nodes; when there are no
          more such formulas than room, staging the goal admits it in this
          round whatever else is staged (staged never shrinks), so
          _GoalStaged ends the round there.
        """
        members = self.members
        delta = self._admit(gamma)
        certain = self.set_cap + 1  # over every room: no goal ends a round
        if watch is not None:
            if watch in members:
                return members, 0
            if watch.size > self.size_cap:
                return members, None
            variables = {*range(1, self.cal._base_var_count + 1), *watch.variables}
            variables = variables.union(*(phi.variables for phi in gamma))
            leaves = len(variables) + len(self.cal.sig.constants())
            certain = _formula_count(self.cal.sig, leaves, watch.size, self.set_cap + 1)
        last = self.fuel.max_closure_rounds
        for round_no in range(1, last + 1):
            room = self.set_cap - len(members)
            if room <= 0:
                break
            # generation stops once nothing more could be admitted anyway;
            # the slack keeps canonical truncation meaningful near the cap.
            # Rules fire first so schema instantiation cannot starve them
            # of the round's work budget. The pool stays fixed until the
            # round's admission, so one sort serves the whole round.
            self.stage_quota = 4 * room + 64
            self.stop_at = watch if certain <= room else None
            staged: set[Formula] = set()
            pool_sorted = sorted(self.pool, key=by_sort_key)
            try:
                try:
                    self.work_left = 6 * self.stage_quota + 4096
                    self._rule_conclusions(delta, staged, pool_sorted)
                except _StagingFull:
                    pass
                try:
                    self.work_left = 6 * self.stage_quota + 4096
                    self._axiom_conclusions(staged, pool_sorted)
                except _StagingFull:
                    pass
            except _GoalStaged:
                return members, round_no
            self.pool_old = pool_sorted
            self.pool_new = []
            fresh = staged - members
            if watch in fresh:
                if len(fresh) > room:
                    size, key = watch.size, watch.sort_key
                    if sum(1 for phi in fresh if phi.size <= size and phi.sort_key < key) >= room:
                        return members, None
                return members, round_no
            if watch is not None and (round_no == last or len(fresh) >= room):
                return members, None
            if not fresh:
                break
            delta = self._admit(sorted(fresh, key=by_sort_key))
        return members, None


def _check_gamma(cal: CalculusPresentation, gamma: Iterable[Formula], fuel: Fuel) -> tuple[Formula, ...]:
    """The distinct premises in canonical order; raises on a premise outside
    the language or on more premises than the set cap."""
    distinct = set()
    for phi in gamma:
        if not formula_in_language(phi, cal.sig):
            raise LanguageError(f"premise {phi.text} is outside the calculus language")
        distinct.add(phi)
    if len(distinct) > fuel.max_set_size:
        raise CapExceeded(f"premise set larger than the set cap {fuel.max_set_size}")
    return tuple(sorted(distinct, key=by_sort_key))


def closure_bounded(
    cal: CalculusPresentation,
    gamma: Iterable[Formula],
    fuel: Fuel,
    *,
    extra_pool: Iterable[Formula] = (),
) -> frozenset[Formula]:
    """A bounded under-approximation of the consequences of gamma.

    extra_pool formulas seed the instantiation pool (their subformulas are
    admitted regardless of the pool size threshold) without being premises.
    Results are memoised process-wide (see the module docstring).
    """
    premises = _check_gamma(cal, gamma, fuel)
    seeds = tuple(sorted(set(extra_pool), key=by_sort_key))
    key = (closure_bounded, cal, premises, fuel, seeds)
    stored = syntax.MEMO.get(key)
    if stored is not None:
        return frozenset(stored)
    members = frozenset(_Engine(cal, fuel, seeds).run(premises)[0])
    syntax.MEMO.put(key, tuple(members), len(premises) + len(seeds) + len(members))
    return members


# ---------------------------------------------------------------------------
# Sound two-valued matrices

# The most candidate matrices the search may range over, and the most
# valuations a schema or a query may; beyond it no matrix is used.
MATRIX_CAP = 1 << 12

# A matrix over the values {0, 1} with 1 designated: each symbol some schema
# mentions, with its table, whose entry at sum(a_i << (n - i)) is the value
# at arguments a_1..a_n.
Matrix = tuple[tuple[Symbol, tuple[int, ...]], ...]


@cache
def _columns(n: int) -> tuple[int, ...]:
    """The values of n atoms over all 2**n valuations: bit v of column k is
    atom k's value under valuation v, which is bit k of v."""
    return tuple(sum(1 << v for v in range(1 << n) if v >> k & 1) for k in range(n))


def _evaluate(phi: Formula, tables: Mapping[Symbol, tuple[int, ...]], values: dict[Formula, int], full: int) -> int:
    """phi's value under every valuation at once, as a column; values holds
    each atom's column and keeps every node's. Iterative at any depth."""
    stack = [phi]
    while stack:
        node = stack[-1]
        if node in values:
            stack.pop()
            continue
        todo = [a for a in node.args if a not in values]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        args = [values[a] for a in reversed(node.args)]
        got = 0
        for row, out in enumerate(tables[node.head]):
            if out:
                term = full
                for k, arg in enumerate(args):
                    term &= arg if row >> k & 1 else full ^ arg
                got |= term
        values[node] = got
    return values[phi]


def _separates(
    tables: Mapping[Symbol, tuple[int, ...]], atoms: Sequence[Formula], gamma: Iterable[Formula], phi: Formula
) -> int:
    """The valuations of atoms, as a column, that designate every member of
    gamma but not phi."""
    full = (1 << (1 << len(atoms))) - 1
    values = dict(zip(atoms, _columns(len(atoms))))
    held = full
    for premise in gamma:
        held &= _evaluate(premise, tables, values, full)
    return held & ~_evaluate(phi, tables, values, full)


def sound_matrices(cal: CalculusPresentation) -> tuple[Matrix, ...]:
    """Every matrix sound for cal, in table order: each axiom is designated
    under every valuation, and each rule carries designated premises to a
    designated conclusion. A symbol no schema mentions constrains nothing,
    so it has no table. () when there are more candidates than MATRIX_CAP,
    or a rule with more valuations. Memoised in MEMO at one slot.

    The search assigns tables symbol by symbol and checks each rule as soon
    as every symbol it mentions has one."""
    key = (sound_matrices, cal)
    found = syntax.MEMO.get(key)
    if found is not None:
        return found
    rules = cal.axioms + cal.rules
    heads = [{node.head for s in r.schemas() for node in s.subformulas() if node.var is None} for r in rules]
    symbols = sorted(set().union(*heads))
    variables = [[svar(v) for v in sorted(frozenset().union(*(s.variables for s in r.schemas())))] for r in rules]
    due: list[list[int]] = [[] for _ in range(len(symbols) + 1)]
    for i, used in enumerate(heads):
        due[max((symbols.index(sym) + 1 for sym in used), default=0)].append(i)
    matrices: list[Matrix] = []

    def extend(tables: dict[Symbol, tuple[int, ...]]) -> None:
        level = len(tables)
        for i in due[level]:
            if _separates(tables, variables[i], rules[i].premises, rules[i].conclusion):
                return
        if level == len(symbols):
            matrices.append(tuple(tables.items()))
            return
        sym = symbols[level]
        for table in product((0, 1), repeat=1 << sym.arity):
            extend({**tables, sym: table})

    candidates = prod(1 << (1 << sym.arity) for sym in symbols)
    if candidates <= MATRIX_CAP and all(1 << len(v) <= MATRIX_CAP for v in variables):
        extend({})
    found = tuple(matrices)
    syntax.MEMO.put(key, found, 1)
    return found


def separating_matrix(
    cal: CalculusPresentation, gamma: Iterable[Formula], phi: Formula
) -> tuple[Matrix, dict[Formula, int]] | None:
    """The first sound matrix of cal with the first valuation under it that
    designates every member of gamma but not phi, or None.

    The atoms a valuation assigns are the variables and the formulas whose
    head has no table, such as an unmentioned constant; None when there
    are more valuations than MATRIX_CAP. Each formula the engine admits is
    a premise or an instance of an axiom or a rule, so it is designated
    wherever gamma is: a separated phi is derived at no fuel.
    """
    matrices = sound_matrices(cal)
    if not matrices:
        return None
    gamma = tuple(gamma)
    mentioned = dict(matrices[0])
    found: dict[Formula, None] = {}
    stack = [*gamma, phi]
    while stack:
        node = stack.pop()
        if node.var is None and node.head in mentioned:
            stack.extend(node.args)
        else:
            found[node] = None
    if 1 << len(found) > MATRIX_CAP:
        return None
    atoms = sorted(found, key=by_sort_key)
    for matrix in matrices:
        missed = _separates(dict(matrix), atoms, gamma, phi)
        if missed:
            row = (missed & -missed).bit_length() - 1
            return matrix, {atom: row >> k & 1 for k, atom in enumerate(atoms)}
    return None


def derives(
    cal: CalculusPresentation,
    gamma: Iterable[Formula],
    phi: Formula,
    fuel: Fuel,
) -> Verdict:
    """Bounded derivability of phi from gamma.

    The goal's subformulas seed the instantiation pool, so the verdict
    equals membership of phi in closure_bounded(gamma, extra_pool=(phi,)).
    Derived verdicts are definitive, but not stable under fuel increase: the
    pool thresholds grow with max_formula_size, and when the set cap binds
    the wider instantiation can crowd out a lemma the derivation needs.
    A goal among the premises is Derived(0), whatever its size. A goal
    that a sound matrix separates from gamma (separating_matrix) is
    answered NotDerivedWithin(fuel) without running the engine, which
    would answer the same at any fuel. Otherwise the engine stops as soon
    as the answer is fixed (_Engine.run): before round 1 for a goal over
    the size cap, and otherwise within the round that decides the answer,
    without admitting that round.
    """
    if not formula_in_language(phi, cal.sig):
        raise LanguageError(f"goal {phi.text} is outside the calculus language")
    checked = _check_gamma(cal, gamma, fuel)
    if phi in checked:
        return Derived(0)
    if separating_matrix(cal, checked, phi) is not None:
        return NotDerivedWithin(fuel)
    engine = _Engine(cal, fuel, (phi,))
    _, found = engine.run(checked, watch=phi)
    if found is None:
        return NotDerivedWithin(fuel)
    return Derived(found)


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class ReportEntry:
    label: str
    ok: bool
    witness: str = ""

    def render(self) -> str:
        status = "pass" if self.ok else "fail"
        return f"{self.label}\t{status}\t{self.witness}"


@dataclass(frozen=True)
class Report:
    """Read-only, so one report can be shared: entries is kept as a tuple."""

    entries: tuple[ReportEntry, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    @property
    def failure(self) -> ReportEntry | None:
        """The first failing entry, or None when every entry passes."""
        return next((e for e in self.entries if not e.ok), None)

    def entry(self, label: str) -> ReportEntry:
        for e in self.entries:
            if e.label == label:
                return e
        raise KeyError(label)

    def render(self) -> str:
        return "\n".join(e.render() for e in self.entries)


def _format_set(gamma: Iterable[Formula]) -> str:
    return "{" + ", ".join(f.text for f in sorted(gamma, key=by_sort_key)) + "}"


# ---------------------------------------------------------------------------
# Operator-law checks

def check_operator_laws(
    cal: CalculusPresentation,
    samples: int,
    fuel: Fuel,
    seed: int,
    *,
    corpus_depth: int = 3,
) -> Report:
    """Probe extensivity, monotonicity, cut, and bounded idempotence on
    seeded random premise sets drawn from the corpus of formulas over x1, x2
    up to corpus_depth.

    The laws are promised only below the set cap, so a comparison is
    skipped when a premise set is over fuel.max_set_size (never at a cap of
    4 or more), or when the closure that should contain the other has
    reached it.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    corpus = enumerate_formulas(cal.sig, corpus_depth, 2)
    failures: dict[str, str] = {}
    cut_tested = 0

    def capped(closed: frozenset) -> bool:
        return len(closed) >= fuel.max_set_size

    for _ in range(samples):
        # delta is drawn from the sampled list, whose order is seeded;
        # iterating the frozenset would follow the formulas' identity hashes
        drawn = rng.sample(corpus, k=rng.randint(0, min(3, len(corpus))))
        gamma = frozenset(drawn)
        delta = frozenset(f for f in drawn if rng.random() < 0.7)
        if len(gamma) > fuel.max_set_size:
            continue
        closed_gamma = closure_bounded(cal, gamma, fuel)
        closed_delta = closure_bounded(cal, delta, fuel)

        if "extensivity" not in failures and not gamma <= closed_gamma:
            missing = sorted(gamma - closed_gamma, key=by_sort_key)[0]
            failures["extensivity"] = f"gamma={_format_set(gamma)} lost {missing.text}"

        if (
            "monotonicity" not in failures
            and not capped(closed_gamma)
            and not closed_delta <= closed_gamma
        ):
            lost = sorted(closed_delta - closed_gamma, key=by_sort_key)[0]
            failures["monotonicity"] = (
                f"delta={_format_set(delta)} gamma={_format_set(gamma)} lost {lost.text}"
            )

        # cut: pick A from the closure of delta so the hypothesis is live
        pick_from = sorted(closed_delta, key=by_sort_key)
        a = rng.choice(pick_from) if pick_from and rng.random() < 0.8 else rng.choice(corpus)
        b = rng.choice(corpus)
        seeds = (a, b)
        if len(gamma | {a}) <= fuel.max_set_size and a in closure_bounded(cal, delta, fuel, extra_pool=seeds):
            hyp2 = closure_bounded(cal, gamma | {a}, fuel, extra_pool=seeds)
            if b in hyp2:
                concl = closure_bounded(cal, delta | gamma, fuel.doubled(), extra_pool=seeds)
                if not capped(concl):
                    cut_tested += 1
                    if "cut" not in failures and b not in concl:
                        failures["cut"] = (
                            f"delta={_format_set(delta)} gamma={_format_set(gamma)} "
                            f"a={a.text} b={b.text}"
                        )

        if "idempotence" not in failures:
            reclosed = closure_bounded(cal, closed_gamma, fuel)
            widened = closure_bounded(cal, gamma, fuel.doubled())
            if not capped(widened) and not reclosed <= widened:
                lost = sorted(reclosed - widened, key=by_sort_key)[0]
                failures["idempotence"] = f"gamma={_format_set(gamma)} escapee {lost.text}"

    entries = []
    for law in ("extensivity", "monotonicity", "cut", "idempotence"):
        witness = failures.get(law, "")
        if law == "cut" and not witness:
            witness = f"instances={cut_tested}"
        entries.append(ReportEntry(law, law not in failures, witness))
    return Report(entries)


def _random_substitution(rng: random.Random, cal: CalculusPresentation, renaming_only: bool) -> Mapping[int, Formula]:
    """Small substitutions: renamings, or maps into leaf-sized formulas."""
    indices = list(range(1, 5))
    mapping: dict[int, Formula] = {}
    if renaming_only:
        targets = rng.sample(range(1, 7), len(indices))
        for i, t in zip(indices, targets):
            mapping[i] = svar(t)
        return mapping
    leaves: list[Formula] = [svar(i) for i in range(1, 4)]
    leaves.extend(apply_symbol(c) for c in cal.sig.constants())
    small: list[Formula] = list(leaves)
    for sym in cal.sig.level(1):
        small.extend(apply_symbol(sym, (leaf,)) for leaf in leaves)
    for i in indices:
        mapping[i] = rng.choice(small)
    return mapping


def check_structural(
    cal: CalculusPresentation,
    samples: int,
    fuel: Fuel,
    seed: int,
) -> Report:
    """Probe closure under substitution: images of bounded consequences must
    be bounded consequences of the substituted premises at doubled fuel.
    Premise sets are drawn from the depth-2 corpus over x1, x2.

    Substitution values are kept leaf-sized so image derivations stay inside
    the doubled pool threshold; both renamings and general substitutions are
    drawn. A sample whose premise set is over the set cap is skipped.
    """
    rng = random.Random(seed)
    corpus = enumerate_formulas(cal.sig, 2, 2)
    renaming_failure = ""
    general_failure = ""
    tested = 0
    for _ in range(samples):
        gamma = frozenset(rng.sample(corpus, k=rng.randint(0, 2)))
        renaming_only = rng.random() < 0.5
        sigma = _random_substitution(rng, cal, renaming_only)
        if len(gamma) > fuel.max_set_size:
            continue
        closed = closure_bounded(cal, gamma, fuel)
        checked = sorted(set(closed) & set(corpus), key=by_sort_key)
        images = [substitute(phi, sigma) for phi in checked]
        gamma_image = [substitute(phi, sigma) for phi in sorted(gamma, key=by_sort_key)]
        closed_image = closure_bounded(cal, gamma_image, fuel.widened(), extra_pool=images)
        tested += len(images)
        for img in images:
            if img not in closed_image:
                msg = f"gamma={_format_set(gamma)} sigma-image {img.text} not rederived"
                if renaming_only and not renaming_failure:
                    renaming_failure = msg
                elif not renaming_only and not general_failure:
                    general_failure = msg
                break
    return Report(
        [
            ReportEntry("renaming-substitutions", not renaming_failure, renaming_failure or f"images={tested}"),
            ReportEntry("general-substitutions", not general_failure, general_failure or f"images={tested}"),
        ]
    )


# ---------------------------------------------------------------------------
# Transfer of consequence along a map


def _gamma_candidates(corpus: Sequence[Formula], max_premises: int):
    """Every premise set of at most max_premises corpus formulas, smallest
    first, each size in corpus order."""
    for n in range(max_premises + 1):
        yield from combinations(corpus, n)


@dataclass(frozen=True)
class Evidence:
    """What is known about a link, from its checker to the manifest.

    status is "verified" (no counterexample within corpus_depth and fuel),
    "refuted" (detail names the witness) or "asserted" (no check ran, so
    there are no check parameters). A checked value carries a whole
    corpus_depth >= 0 and a Fuel, an asserted one neither, and detail is a
    str; the constructor raises ValueError otherwise. Stored links never
    carry refuted evidence: add_link rejects the link instead.
    """

    status: str  # "verified" | "refuted" | "asserted"
    corpus_depth: int | None = None
    fuel: Fuel | None = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.status == "asserted":
            if self.corpus_depth is not None or self.fuel is not None:
                raise ValueError("asserted evidence carries no corpus depth or fuel")
        elif self.status in ("verified", "refuted"):
            depth = self.corpus_depth
            if type(depth) is not int or depth < 0 or not isinstance(self.fuel, Fuel):
                raise ValueError(f"{self.status} evidence needs a whole corpus depth >= 0 and a Fuel")
        else:
            raise ValueError(f"unknown evidence status {self.status!r}")
        if type(self.detail) is not str:
            raise ValueError("the evidence detail must be a str")

    @property
    def ok(self) -> bool:
        return self.status != "refuted"


ASSERTED = Evidence("asserted", None, None, "asserted without machine check")


def transfer_evidence(
    check: str,
    src: CalculusPresentation,
    dst: CalculusPresentation,
    image: Callable[[Formula], Formula],
    corpus_depth: int,
    fuel: Fuel,
    scope: str = "",
) -> Evidence:
    """Bounded evidence that consequence transfers from src to dst along
    image; check names the link check in the detail, and scope, when given,
    states the bound before the count.

    Scans every premise set of at most two corpus formulas over src's
    language (variables x1, x2) within the set cap, in canonical order.
    Each strict corpus consequence src derives within fuel must have its
    image derived by dst from the imaged premises within fuel; missing
    images get one retry at escalated fuel. The first missing image, in
    canonical order of its preimage, refutes; otherwise the detail counts
    the premises and consequences checked.
    """
    corpus = enumerate_formulas(src.sig, corpus_depth, 2)
    corpus_set = set(corpus)
    escalation = fuel.escalated()
    checked = 0
    for gamma in _gamma_candidates(corpus, min(2, fuel.max_set_size)):
        # premises transfer by extensivity; check the strict consequences
        derivable = sorted(
            (closure_bounded(src, gamma, fuel) & corpus_set) - set(gamma),
            key=by_sort_key,
        )
        checked += len(gamma) + len(derivable)
        if not derivable:
            continue
        image_gamma = [image(g) for g in gamma]
        images = [image(phi) for phi in derivable]
        transferred = closure_bounded(dst, image_gamma, fuel, extra_pool=images)
        missing = [i for i, img in enumerate(images) if img not in transferred]
        if missing:
            transferred = closure_bounded(dst, image_gamma, escalation, extra_pool=images)
            missing = [i for i in missing if images[i] not in transferred]
        if missing:
            phi, img = derivable[missing[0]], images[missing[0]]
            witness = f"gamma={_format_set(gamma)} phi={phi.text} image={img.text}"
            return Evidence("refuted", corpus_depth, fuel, f"{check} refuted {witness}")
    return Evidence("verified", corpus_depth, fuel, f"{check} verified-up-to {scope}checked={checked}")


# ---------------------------------------------------------------------------
# Weakness relation


def weaker_than(
    cal1: CalculusPresentation,
    cal2: CalculusPresentation,
    corpus_depth: int,
    fuel: Fuel,
) -> Evidence:
    """Bounded evidence for "cal1 is weaker than cal2": transfer_evidence
    along the identity, so everything cal1 derives on the corpus premise
    sets must be derivable by cal2. The first failure is the witness.
    """
    if not signature_leq(cal1.sig, cal2.sig):
        raise SignatureError("weaker-than needs the left language inside the right one")
    scope = f"depth={corpus_depth} rounds={fuel.max_closure_rounds} "
    return transfer_evidence("weaker-than", cal1, cal2, lambda phi: phi, corpus_depth, fuel, scope=scope)


# ---------------------------------------------------------------------------
# Meta-principle probes


def check_principles(cal: CalculusPresentation, corpus_depth: int, fuel: Fuel) -> Report:
    """Bounded probes of non-triviality, non-contradiction, and explosion.

    The corpus is every formula of depth <= corpus_depth over x1 and x2.
    Non-triviality and non-contradiction search the corpus for witnesses;
    explosion is checked exhaustively over corpus (A, B) pairs with an empty
    side premise set, which bounded-closure monotonicity makes the hardest
    case. PNC and PPS need a designated negation.
    """
    if cal.negation is None:
        raise ConfigError("PNC and PPS probes need a designated negation")
    corpus = enumerate_formulas(cal.sig, corpus_depth, 2)
    entries: list[ReportEntry] = []
    neg = cal.negation

    # Non-triviality: some (gamma, B) with B not derivable within fuel.
    pnt_witness = ""
    for gamma in _gamma_candidates(corpus, 1):
        for b in corpus:
            if not derives(cal, gamma, b, fuel).is_derived:
                pnt_witness = f"gamma={_format_set(gamma)} b={b.text}"
                break
        if pnt_witness:
            break
    entries.append(
        ReportEntry("PNT", bool(pnt_witness), pnt_witness or "no witness up to bound")
    )

    # Non-contradiction: some gamma deriving neither phi nor not-phi.
    pnc_witness = ""
    for gamma in _gamma_candidates(corpus, 1):
        for phi in corpus:
            if derives(cal, gamma, phi, fuel).is_derived:
                continue
            negated = apply_symbol(neg, (phi,))
            if not derives(cal, gamma, negated, fuel).is_derived:
                pnc_witness = f"gamma={_format_set(gamma)} phi={phi.text}"
                break
        if pnc_witness:
            break
    entries.append(
        ReportEntry("PNC", bool(pnc_witness), pnc_witness or "no witness up to bound")
    )

    # Explosion: from A and not-A, everything in the corpus follows.
    pps_counter = ""
    pps_checked = 0
    for a in corpus:
        gamma = (a, apply_symbol(neg, (a,)))
        for b in corpus:
            pps_checked += 1
            if not derives(cal, gamma, b, fuel).is_derived:
                pps_counter = f"gamma={{}} a={a.text} b={b.text}"
                break
        if pps_counter:
            break
    entries.append(
        ReportEntry(
            "PPS",
            not pps_counter,
            pps_counter or f"holds-up-to-bound pairs={pps_checked}",
        )
    )
    return Report(entries)
