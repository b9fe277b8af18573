(** Approximate range queries (§3, Theorem 3).

    On top of the static index, every stored position set [S] is also
    stored in [k = floor(lg lg n)] hashed versions [h_j(S)], where
    [h_j : [n] -> [2^(2^j)]] is the split universal family of
    {!Hashing.Universal.Split} (the same [k] functions for every
    node).  A query with false-positive parameter [ε] first computes
    the exact answer size [z] from the A array, picks the smallest [j]
    with [2^(2^j) > z/ε], and merges the [j]-hashed sets of the same
    storage runs an exact query would read — so only
    [O(z·lg(1/ε))] bits are read instead of [O(z·lg(n/z))].

    The result is returned in hashed form; membership tests and
    intersections with other approximate results need no further
    I/Os, and the preimage can be enumerated without reading anything
    (§3: "we do not want to output the preimage ... but only to
    generate it"). *)

type t

(** An approximate answer: either the query degenerated to an exact
    one (large [z/ε]), or a hashed set with its hash function. *)
type answer =
  | Exact of Indexing.Answer.t
  | Hashed of {
      j : int;
      fam : Hashing.Universal.Split.t;
      hashed : Cbitmap.Posting.t;
      z : int;  (** exact answer cardinality, known from A *)
    }

(** [build device ~sigma x]: the exact base index
    ({!Static_index.build} with [c] and [code]) and, per hash level,
    the hashed sets of its stored nodes, drawn from [seed].  The
    stored nodes' postings come once from {!Wbb.store_levels}; each
    hashed set is sorted and deduplicated through a bitmap over the
    hash range, with no comparison sort. *)
val build :
  ?seed:int ->
  ?c:int ->
  ?code:Cbitmap.Gap_codec.code ->
  Iosim.Device.t ->
  sigma:int ->
  int array ->
  t

(** Number of hash levels [k]. *)
val k : t -> int

val base : t -> Static_index.t

(** The hash level [j] a query of exact size [z] at [epsilon] would
    use — the smallest [j] with [2^(2^j) > z/ε]; [> k t] means the
    query degenerates to exact.  Exposed so the cost-based planner
    (PR 10) can price a prefilter ([z · 2^j] hashed payload bits)
    without issuing it. *)
val level : t -> epsilon:float -> z:int -> int

val query : t -> epsilon:float -> lo:int -> hi:int -> answer

(** [probe t ~epsilon ~lo ~hi cand] keeps the rows of [cand] that
    [mem (query t ~epsilon ~lo ~hi)] accepts, with the same reads in
    the same order: the A array, the descent and directory entries,
    then each hashed extent decoded once, in order, into the index's
    {!Indexing.Stream_table.Arena} as [query] decodes them, so every
    {!Iosim.Stats} field equals [query]'s.
    The decoded hashes are tested against [cand]'s hashes and never
    merged into a posting.  The reads happen even when [cand] is
    empty.  Uses scratch kept in [t], cleared at the start of every
    probe: not reentrant, one query or probe at a time per index. *)
val probe :
  t ->
  epsilon:float ->
  lo:int ->
  hi:int ->
  Cbitmap.Posting.t ->
  Cbitmap.Posting.t

(** Membership in the approximate set (false positives possible,
    false negatives impossible). *)
val mem : answer -> int -> bool

(** All positions of [\[0;n)] in the approximate set — the preimage
    [h_j^{-1}(hashed)] for hashed answers. *)
val candidates : answer -> n:int -> Cbitmap.Posting.t

val size_bits : t -> int

(** Bits occupied by the hashed sets only. *)
val hashed_bits : t -> int
