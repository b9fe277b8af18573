(** The pruned weight-balanced tree [W] of §2.2.

    The [n] character instances of [x], ordered primarily by character
    and secondarily by position, are the (conceptual) leaves; we call
    their indices in this order {e entries}.  The tree is [c]-ary and
    balanced, so a node at depth [d] from the root has weight
    [Θ(n/c^d)].  It is pruned: a node all of whose entries carry the
    same character keeps no children.  Pruned leaves therefore cover
    entry ranges of a single character, which guarantees that every
    alphabet range query covers a disjoint union of whole subtrees —
    the canonical decomposition computed by {!decompose}.

    This module is the in-memory combinatorial structure, plus the
    one decision of which node bitmaps a tree index stores
    ({!doubling_levels}, {!store_levels}): {!Static_index} (and
    {!Approx_index}'s hashed copies of its nodes), {!Append_index}
    and {!Dynamic_index} all store their levels through it. *)

type node = {
  mutable id : int;  (** breadth-first identifier *)
  level : int;  (** 1 = root *)
  s : int;  (** first entry covered (inclusive) *)
  e : int;  (** one past the last entry covered *)
  clo : int;  (** character of entry [s] *)
  chi : int;  (** character of entry [e-1] *)
  children : node array;  (** empty iff pruned leaf *)
  mutable leaf_index : int;  (** rank among leaves, [-1] for internal *)
  mutable level_index : int;
      (** rank among {e internal} nodes of the same level, [-1] for
          leaves *)
}

type t = {
  root : node;
  height : int;  (** deepest level *)
  c : int;
  n : int;
  sigma : int;
  nodes : node array;  (** by [id], breadth-first *)
  leaves : node array;  (** left-to-right *)
  internal_by_level : node array array;
      (** [internal_by_level.(l)] = internal nodes at level [l+1],
          left-to-right *)
  entry_char : int array;  (** character of each entry *)
  entry_pos : int array;  (** string position of each entry *)
  char_start : int array;
      (** [char_start.(a)] = first entry of character [a]; length
          [sigma + 1] (the prefix-count array [A] of §2.1) *)
}

(** [build ~c ~sigma x].  [c >= 2] is the branching parameter. *)
val build : c:int -> sigma:int -> int array -> t

val weight : node -> int
val is_leaf : node -> bool

(** Canonical decomposition: maximal nodes whose entry range is fully
    inside [\[s;e)], in left-to-right order.  Requires [s] and [e] to
    be character boundaries (values of [char_start]) — guaranteed for
    alphabet range queries.  Also returns the list of visited
    (partially overlapping) nodes, i.e. the two root-to-boundary
    spines, for I/O accounting of the descent. *)
val decompose : t -> s:int -> e:int -> node list * node list

(** [frontier t v ~stored] expands [v] to the explicitly-stored nodes
    covering exactly its subtree: walking down, a node [u] is taken
    when [stored u] holds (leaves must always satisfy [stored]).  The
    result is in left-to-right order. *)
val frontier : t -> node -> stored:(node -> bool) -> node list

(** Total number of nodes; the paper bounds it by [O(σ·lg n)] for the
    pruned tree. *)
val node_count : t -> int

(** The levels [1, 2, 4, 8, ...] up to [height]: the internal levels
    whose bitmaps §2.2 stores. *)
val doubling_levels : int -> int list

(** [store_levels t x ~levels store] stores the bitmaps of the internal
    nodes of each level in [levels] and of every pruned leaf: one
    [store] call per level that has internal nodes (its nodes'
    positions, left to right), levels ascending, then one for the
    leaves — the order that fixes every stored extent's device
    offset.  [x] must be the string [t] was built from (callers hold
    it; raises [Invalid_argument] if its length is not [n]).  Each
    stored level's postings, and the leaves', come from one pass over
    [x] in position order, with no sort: a position's entry is its
    character's running cursor from [char_start], each character keeps
    a pointer into the level's nodes (started by binary search), and
    the node that covers the entry gets the position appended, so
    every posting fills in increasing order.  A level costs
    [O(n + σ·lg k)] time for its [k] nodes and [O(σ + k)] words beside
    the postings it returns.  Returns [mat] ([mat.(l)] iff [l] is in
    [levels], for [l] in [0 .. height]), the per-level storages
    (indexed by level, [None] where nothing is stored) and the leaf
    storage. *)
val store_levels :
  t ->
  int array ->
  levels:int list ->
  (Cbitmap.Posting.t array -> 'a) ->
  bool array * 'a option array * 'a
