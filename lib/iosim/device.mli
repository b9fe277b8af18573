(** Simulated block device for the I/O model of Aggarwal–Vitter [1],
    as used by the paper: storage is addressed in bits, transfers
    happen in blocks of [B] bits, and an LRU buffer pool models [M]
    bits of internal memory.  Every read or write of a bit range
    touches the covering blocks; misses are counted in {!Stats}.

    Space is handed out by a bump allocator ({!alloc} / {!store});
    structures that rebuild simply allocate fresh regions (the
    simulator does not reclaim old extents — space accounting for the
    experiments uses the sizes reported by the structures themselves,
    not the allocator high-water mark). *)

type t

(** A bit-addressed extent on the device. *)
type region = { off : int; len : int }

(** [create ~block_bits ~mem_bits ()] makes an empty device with
    blocks of [block_bits] bits (must be a positive multiple of 8) and
    a buffer pool of [mem_bits / block_bits] blocks.
    [read_before_write] (default [true]) charges a block read when
    writing to a non-resident block, modelling read-modify-write of
    partial blocks.  [pool_policy] (default [`Lru], the seed
    semantics) selects the pool's replacement policy; batched query
    execution uses [`Segmented] so its sequential payload passes
    cannot flush the hot directory blocks (see {!Buffer_pool}). *)
val create :
  ?read_before_write:bool ->
  ?pool_policy:Buffer_pool.policy ->
  block_bits:int ->
  mem_bits:int ->
  unit ->
  t

val block_bits : t -> int
val stats : t -> Stats.t
val pool : t -> Buffer_pool.t

(** Mutation counter: bumped by every [alloc] and every write.
    A {!decoder} records it at creation and raises
    [Secidx_error.Stale_decoder] if it has moved by the time it
    delivers bits. *)
val generation : t -> int

(** Attach / detach a fault plan (see {!Fault}).  While a plan is
    attached the per-block access loop is always taken (fault checks
    are per block), so counters remain exact. *)
val set_fault : t -> Fault.t -> unit

val clear_fault : t -> unit
val fault : t -> Fault.t option

(** Reset counters (leaves pool contents alone).  Also forgets the
    last transferred block, so the next transfer counts one seek. *)
val reset_stats : t -> unit

(** Attach a space ledger: every subsequent {!alloc} charges its
    requested length to the ledger's current component and any
    block-alignment padding to [Obs.Ledger.padding], so each component
    holds exactly its extents' bits and [Obs.Ledger.total] still
    tracks {!used_bits} growth exactly. *)
val set_ledger : t -> Obs.Ledger.t -> unit

val clear_ledger : t -> unit
val ledger : t -> Obs.Ledger.t option

(** [with_component t name f] scopes the attached ledger's current
    component around [f] (no-op without a ledger). *)
val with_component : t -> string -> (unit -> 'a) -> 'a

(** Empty the buffer pool — use before a query to measure a cold-cache
    cost. *)
val clear_pool : t -> unit

(** Bits allocated so far (high-water mark). *)
val used_bits : t -> int

(** [alloc t len] reserves [len] bits.  [align_block] (default
    [false]) rounds the start up to a block boundary. *)
val alloc : ?align_block:bool -> t -> int -> region

(** Counted bit-range read, [0 <= width <= 62]. *)
val read_bits : t -> pos:int -> width:int -> int

(** Counted bit-range write. *)
val write_bits : t -> pos:int -> width:int -> int -> unit

(** Write a whole buffer at [region.off] (counted once per covered
    block).  The buffer length must not exceed [region.len]. *)
val write_buf : t -> region -> Bitio.Bitbuf.t -> unit

(** [store t buf] allocates a region of exactly [Bitbuf.length buf]
    bits and writes [buf] there. *)
val store : ?align_block:bool -> t -> Bitio.Bitbuf.t -> region

(** Counted sequential read of a whole region into a fresh buffer. *)
val read_region : t -> region -> Bitio.Bitbuf.t

(** Buffered word-at-a-time counted decoder starting at absolute bit
    [pos] — the device's one decode path.  Charges on consumption
    (never on cache refill), so every {!Stats} field but [pool_hits]
    is identical to per-bit reads of the same stream (a per-bit reader
    re-touches a resident block once per read, so it counts more
    hits).  The bulk gamma kernel ({!Bitio.Decoder.gamma_prefix_into})
    charges a run of [k] touches on one block as [k] consecutive
    demand reads of it: real pool accesses until the pool's re-hit
    memo holds the block, then the rest as one count
    ({!Buffer_pool.rehits}).  Every {!Stats} field, the pool's state
    and counters, the [iosim_*] metrics and, when tracing, the [dev]
    events are those of per-codeword charging, also when a charge
    raises; with a fault plan armed each touch is a full access.
    Snapshots the backing store: any later [alloc] or write makes the
    next charge raise [Secidx_error.Stale_decoder] before any counter
    moves. *)
val decoder : t -> pos:int -> Bitio.Decoder.t

(** Blocks covered by a bit range: [blocks_spanned t ~pos ~len]. *)
val blocks_spanned : t -> pos:int -> len:int -> int

(** [prefetch t ~pos ~len] declares that [pos, pos+len) is about to be
    read sequentially and transfers its non-resident covering blocks
    into the pool in one sequential pass (at most one seek).  Each
    transferred block is charged as a [block_read] and counted in
    [Stats.prefetches]; the first demand hit on such a block counts
    one [Stats.prefetch_hits].  Advisory: no-op when the pool is
    disabled or a fault plan is armed (faults must land on demand
    accesses).  Raises [Invalid_argument] outside the allocated
    space. *)
val prefetch : t -> pos:int -> len:int -> unit

(** Flip [count] seeded pseudo-random bits anywhere in the allocated
    space (raw, uncounted — latent medium corruption).  Returns the
    flipped bit positions; counts them in [Stats.faults_injected]. *)
val inject_bit_flips : t -> seed:int -> count:int -> int list

(** [with_retries ?attempts ?backoff t f] runs [f], re-running it
    after a [Secidx_error.IO_error] up to [attempts] (default 3) total
    tries — the bounded-retry policy for transient read faults.  Each
    re-run increments [Stats.retries]; before re-running attempt
    [k + 1], [backoff ~attempt:k] simulated I/O ticks are charged to
    [Stats.backoff_ios] (no charge without [backoff]), so retry storms
    are visible in traces and benches.  The last failure propagates.
    Only [IO_error] is retried — a [Secidx_error.Crashed] kill always
    propagates so recovery can run instead. *)
val with_retries :
  ?attempts:int -> ?backoff:(attempt:int -> int) -> t -> (unit -> 'a) -> 'a

(** Uncounted CRC-32 of a raw extent — for {!Frame} to seal content
    its writer just produced.  Verification uses counted reads. *)
val raw_crc32 : t -> pos:int -> len:int -> int
