(** Buffer pool modelling internal memory of [M] bits.

    The pool tracks which block ids are currently resident; it stores
    no data (block contents live in the device image).  A capacity of
    0 disables caching, so every access is a block transfer.

    Two replacement policies:

    - [`Lru] (default, the seed semantics): one recency list, tail
      eviction.
    - [`Segmented]: scan-resistant SLRU/2Q.  A missed block enters a
      probationary segment; a re-access promotes it into a protected
      segment holding [capacity/2] blocks.  Eviction takes the
      probationary tail first, so a sequential scan (which never
      re-touches a block) cannot displace the re-accessed hot set.
      With capacity 1 the protected segment is empty and the policy
      degrades to LRU. *)

type t

type policy = [ `Lru | `Segmented ]

(** [create ?policy ~capacity_blocks ()]; [policy] defaults to
    [`Lru]. *)
val create : ?policy:policy -> capacity_blocks:int -> unit -> t

val capacity : t -> int
val policy : t -> policy

(** [access t blk] records a demand access to block [blk]; returns
    [true] on a hit.  On a miss the block becomes resident (evicting a
    victim if full).  A hit never evicts. *)
val access : t -> int -> bool

(** [rehit t blk] is the fast path of {!access} for a block whose hit
    was the pool's most recent structural operation and whose prefetch
    flag is clear: it counts one hit and returns [true].  Anything else
    returns [false] and changes nothing.  In that case a repeated hit
    would leave recency, segments and flags as they are, so
    [rehit t blk || access t blk] has exactly the effect of
    [access t blk], and a caller that gets [true] knows
    {!consume_prefetch} would return [false]. *)
val rehit : t -> int -> bool

(** [rehits t blk k] is [k] consecutive {!rehit}s of [blk] in one
    step: when the memo holds [blk] with its prefetch flag clear it
    counts [k] hits and returns [true]; otherwise it returns [false]
    and changes nothing.  A rehit changes nothing but the hit count,
    so once the first of [k] accesses would be a rehit all of them
    are, and [rehits t blk k] has exactly the effect of [k] calls of
    [access t blk]. *)
val rehits : t -> int -> int -> bool

(** [insert_prefetched t blk] makes [blk] resident as readahead would:
    probationary (or LRU front), flagged as prefetched.  Returns
    [true] iff a transfer happened — [false] when the block is already
    resident or the capacity is 0. *)
val insert_prefetched : t -> int -> bool

(** [consume_prefetch t blk] is [true] iff [blk] is resident with its
    prefetch flag still set; clears the flag, so each prefetched block
    reports at most one prefetch hit. *)
val consume_prefetch : t -> int -> bool

(** Is the block currently resident (does not update recency)? *)
val mem : t -> int -> bool

(** Drop a specific block (used when the device frees space). *)
val invalidate : t -> int -> unit

(** Empty the pool.  Lifetime counters are preserved. *)
val clear : t -> unit

(** Number of resident blocks. *)
val occupancy : t -> int

(** Number of blocks currently in the protected segment (0 under
    [`Lru]). *)
val protected_occupancy : t -> int

(** Lifetime pool counters (not reset by {!clear}); the scan-resistance
    regression measures policies through these. *)
type counters = {
  hits : int;
  misses : int;
  evictions : int;
  promotions : int;  (** probation → protected moves ([`Segmented] only) *)
  evicted_reused : int;
      (** evictions of blocks that had been re-accessed while resident
          — the "hot block lost to a scan" signal: 0 for a protected
          set that survives, positive when a scan flushes it *)
}

val counters : t -> counters
