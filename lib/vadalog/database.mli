(** Fact store of the Vadalog engine: per-predicate sets of tuples with
    lazily built hash indexes on bound-position patterns. Duplicate
    facts are silently ignored (set semantics); fact equality is
    {!Kgm_common.Value.equal} pointwise (so e.g. a fact containing
    [Float nan] equals itself and re-derivation never duplicates it). *)

open Kgm_common

type fact = Value.t array

type ifact = int array
(** A dictionary-encoded fact: each cell is the {!Kgm_common.Intern} id
    of the corresponding value in the database's dictionary. This is
    the representation facts are actually stored, deduplicated and
    joined in — pointwise int equality, no boxed-value traversal. *)

module KeyTbl : Hashtbl.S with type key = Value.t list
(** Hash tables keyed by value tuples, consistent with
    {!Value.equal}/{!Value.hash} — for state that must survive a change
    of dictionary (the engine's aggregation groups and contributor
    keys, which checkpoints serialize as values). *)

module IKeyTbl : Hashtbl.S with type key = int list
(** Hash tables keyed by interned probe keys (id tuples). *)

module IFactTbl : Hashtbl.S with type key = ifact
(** Hash tables keyed by interned facts (pointwise int equality,
    multiplicative hash over the ids). *)

(** The store's fact identity: predicate and interned tuple. Two ids
    are equal exactly when the facts are (the dictionary is a
    bijection), so derivation support and incremental maintenance key
    on it directly. *)
module FactId : sig
  type t = string * ifact

  val equal : t -> t -> bool
  val compare : t -> t -> int
  (** Predicate name, then arity, then ids pointwise — a total order on
      ids, unrelated to {!Value.compare}. *)

  val hash : t -> int
end

module FactTbl : Hashtbl.S with type key = FactId.t

type t

val create : ?dict:Intern.t -> unit -> t
(** A fresh store; [dict] shares an existing dictionary (ids allocated
    by either side are visible to both). Default: a private one. *)

val dict : t -> Intern.t
(** The database's dictionary. Append to it only on sequential paths —
    never while the database is frozen for a parallel round. *)

val intern_fact : t -> fact -> ifact
(** Encode a fact, interning any values not yet in the dictionary.
    Never call on a frozen database's dictionary. *)

val resolve_fact : t -> ifact -> fact
(** Decode an interned fact back to values (read-only). *)

val find_fact : t -> fact -> ifact option
(** Read-only encoding: [None] when some value was never interned (then
    the fact cannot be present in any store sharing the dictionary).
    Frozen-safe. *)

val add : t -> string -> fact -> bool
(** [add db pred fact] inserts and returns [true] when the fact is new.
    Facts are stored in append order and the dedup probe is keyed on the
    fact array itself (no per-probe key allocation). Existing indexes on
    the predicate are maintained incrementally. Registered as the
    ["db_insert"] {!Kgm_resilience.Faults} site: with fault injection
    active it may raise [Kgm_resilience.Fault], which lands mid-round —
    the crash the checkpoint/resume tests provoke. *)

val mem : t -> string -> fact -> bool

val add_i : t -> string -> ifact -> bool
(** {!add} for an already-interned fact (no dictionary mutation). *)

val mem_i : t -> string -> ifact -> bool

val facts : t -> string -> fact list
(** Facts of a predicate in insertion order — the order {!add} first
    accepted them, which every probe and export preserves (the engine's
    determinism invariants depend on it); [[]] for unknown predicates. *)

val facts_i : t -> string -> ifact list
(** Interned facts of a predicate in insertion order. *)

val count : t -> string -> int
val total : t -> int

val predicates : t -> string list
(** Every predicate with at least one fact, sorted. *)

val lookup : t -> string -> int list -> Value.t list -> fact list
(** [lookup db pred positions key]: the facts whose values at
    [positions] (ascending) equal [key] pointwise, in insertion order.
    Builds a hash index for the position pattern on first use; the empty
    pattern is a full scan. Facts too short for the pattern never match.
    On a {!freeze}-frozen database a missing index is answered by a
    linear scan instead of being built (no mutation). A key containing
    a value absent from the dictionary matches nothing (and examines
    nothing) without touching the dictionary. *)

val iter_matches :
  t -> string -> int list -> Value.t list -> (int -> fact -> unit) -> int
(** [iter_matches db pred positions key f] calls [f seq fact] on exactly
    the facts {!lookup} would return, in the same (insertion) order,
    without allocating a result list. [seq] is the fact's per-predicate
    insertion sequence number (dense from 0), strictly ascending over
    the calls — the engine's deterministic join-order sort key.

    Returns the number of facts {e examined} to answer the probe: the
    index-group length when an index serves it (or is built first, on an
    unfrozen store), but the predicate's whole cardinality on the frozen
    missing-index path, where the probe degrades to a linear scan. The
    engine charges this to its [rs_probes] counter, so un-prepared
    probe patterns show up as the full scans they really are. [f] may
    add facts to an unfrozen store: the probe visits, and counts, only
    the facts present when it started. *)

val iter_matches_i :
  t -> string -> int list -> int list -> (int -> ifact -> unit) -> int
(** {!iter_matches} over interned facts and an id-encoded key — the
    engine's hot probe path (no per-fact decoding). *)

val probe_cost : t -> string -> int list -> int list -> int
(** [probe_cost t pred positions key] is the number of facts
    {!iter_matches_i} would examine for the same probe, read without
    iterating: the index-group length (a missing index is built first
    on an unfrozen store, as the probe would), or [pred]'s whole
    cardinality for the empty pattern and on the frozen missing-index
    path. The engine's restricted-chase head check ranks head atoms by
    it. *)

val nth_i : t -> string -> int -> ifact
(** [nth_i t pred seq] reads [pred]'s fact of insertion sequence [seq]
    (the [seq] {!iter_matches_i} reports). [nth_i t pred] may be kept
    and applied to any number of sequences, across writes: it resolves
    [pred]'s current store on every call, so it never reads a store a
    copy-on-write swap has replaced. Raises [Invalid_argument] on a
    sequence out of range. *)

val iter_range : t -> string -> lo:int -> hi:int -> (int -> ifact -> unit) -> unit
(** [iter_range t pred ~lo ~hi f] calls [f seq ifact] for the facts of
    [pred] with insertion sequence [lo <= seq < hi], ascending — the
    store read in place, no copy (frozen-safe). *)

val remove_batch :
  ?on_remove:(string -> ifact -> unit) -> t -> (string * ifact) list -> int
(** [remove_batch t facts] deletes every listed (pred, ifact) pair that
    is present; returns how many facts were removed (duplicates counted
    once). Each affected predicate gets a fresh store, derived in one
    sweep: the survivors keep their relative insertion order and are
    renumbered densely from 0, and the dedup set and every index
    pattern are compacted through one old→new sequence map — in place
    for a private store, into fresh tables for a shared one (see
    {!copy}), which is never mutated. Afterwards the store is
    indistinguishable from one into which only the survivors were ever
    inserted (in particular, a predicate emptied by the sweep vanishes
    from {!predicates}). A sweep copies no store by copy-on-write: it
    does not count in {!cow_facts}. This is the deletion
    primitive of the incremental maintenance layer
    ({!Kgm_vadalog.Incremental}); it is batch-oriented because DRed
    removes a whole overdeletion cone at once. [on_remove] is called
    once per fact actually removed, in sweep order — maintenance
    layers use it to keep derived state (aggregate group logs, caches)
    in step with the store. Raises [Invalid_argument] on a frozen
    database. *)

val removals : t -> int
(** How many {!remove_batch} calls removed something: insertion
    sequences read before and after a change of this count do not
    name the same facts. *)

(** {1 Freezing (parallel read phases)}

    The restricted-chase engine evaluates rule bodies from several
    domains at once against a read-only snapshot. Freezing makes the
    store safe for concurrent readers: writes are rejected and
    {!lookup} never builds indexes. Use {!prepare_index} to build the
    indexes the workers will probe {e before} freezing. *)

val freeze : t -> unit
(** Reject writes ({!add} raises [Invalid_argument]) and make every
    read path mutation-free until {!thaw}. *)

val thaw : t -> unit
val is_frozen : t -> bool

val prepare_index : t -> string -> int list -> unit
(** [prepare_index db pred positions] eagerly builds the index for the
    position pattern (a no-op for the empty pattern, unknown predicates
    or an already-built index). *)

val indexed_patterns : t -> string -> int list list
(** The position patterns currently indexed for a predicate, sorted. *)

(** {1 Side-car index cache (frozen stores)}

    A frozen store answers a probe on an unprepared pattern with a full
    linear scan on {e every} call (it must not mutate itself — any
    number of domains may be reading it concurrently). An
    {!index_cache} amortizes that to one scan: the first probe builds
    the pattern's index {e outside} the store under the cache's mutex;
    later probes, from any domain, answer through the cached (then
    immutable) index lock-free. Only meaningful against a frozen store
    — the reasoning server keeps one cache per published epoch for
    query patterns first seen after the epoch was prepared. *)

type index_cache

val cache_create : unit -> index_cache

val cached_patterns : index_cache -> (string * int list) list
(** The (predicate, positions) patterns built into the cache so far,
    sorted. *)

val iter_matches_cached :
  index_cache -> t -> string -> int list -> Value.t list ->
  (int -> fact -> unit) -> int
(** {!iter_matches}, except that a missing index on a frozen store is
    built once into the cache (thread-safe) instead of degrading to a
    linear scan per probe; the examined count is then the postings
    length. Falls back to plain {!iter_matches} for empty patterns and
    unfrozen stores. *)

val copy : t -> t
(** A copy-on-write snapshot, in O(#predicates): the copy shares every
    per-predicate store of [t] — facts, dedup set and index patterns —
    and both sides mark each shared store read-only. A shared store is
    never mutated again: the first {!add}, index build
    ({!prepare_index}, or a probe on an unfrozen store) or
    {!remove_batch} on it, through either database, first swaps a
    private copy into that database alone (by table copy, nothing
    re-hashed; counted in {!cow_facts}) or, for a removal, derives the
    swept store from it. So writes to either side are never seen by
    the other, and a predicate neither side writes stays physically
    shared. The dictionary is {e shared} too (ids stay stable across
    copies; it is append-only). The frozen flag carries over (a copy of
    a frozen snapshot is itself a read-only snapshot). *)

val cow_facts : t -> int
(** Facts this database has copied so far by copy-on-write swaps of
    shared stores (a swap of an [n]-fact store counts [n]); a
    {!copy} starts at 0. The reasoning server reports its per-update
    growth as [cow_facts=]. *)

val same_store : t -> t -> string -> bool
(** [same_store a b pred]: [a] and [b] hold the very same (shared)
    store for [pred] — physical sharing after {!copy}, for tests and
    diagnostics. [false] when either lacks [pred]. *)

val pp : Format.formatter -> t -> unit
(** Every fact as [pred(v1, ..., vn).] lines, predicates sorted. *)
