(* Always-on metrics (PR 9): global, domain-striped counters beside
   the per-device [Stats] record.  Stats stay the unit of differential
   testing (exact, resettable per device); the metrics plane is the
   process-wide view a scrape exports, cheap enough (one atomic add on
   the caller's stripe) to stay compiled into the block hot path. *)
let m_block_reads = Obs.Metrics.counter "iosim_block_reads_total"
let m_block_writes = Obs.Metrics.counter "iosim_block_writes_total"
let m_pool_hits = Obs.Metrics.counter "iosim_pool_hits_total"
let m_seeks = Obs.Metrics.counter "iosim_seeks_total"
let m_prefetches = Obs.Metrics.counter "iosim_prefetches_total"
let m_prefetch_hits = Obs.Metrics.counter "iosim_prefetch_hits_total"
let m_retries = Obs.Metrics.counter "iosim_retries_total"
let m_backoff_ios = Obs.Metrics.counter "iosim_backoff_ios_total"
let m_faults = Obs.Metrics.counter "iosim_faults_injected_total"

type t = {
  block_bits : int;
  mutable data : Bytes.t;
  mutable used_bits : int;
  pool : Buffer_pool.t;
  stats : Stats.t;
  read_before_write : bool;
  mutable generation : int;
      (* bumped on every alloc/write; a decoder refuses to read once
         it moves (Stale_decoder) *)
  mutable fault : Fault.t option;
  mutable last_block : int;
      (* last block transferred (pool miss) since the last stats
         reset; [min_int] = no transfer yet, so the first transfer of
         a run always counts one seek *)
  mutable ledger : Obs.Ledger.t option;
}

type region = { off : int; len : int }

let create ?(read_before_write = true) ?(pool_policy = `Lru) ~block_bits
    ~mem_bits () =
  if block_bits <= 0 || block_bits mod 8 <> 0 then
    invalid_arg "Device.create: block_bits must be a positive multiple of 8";
  if mem_bits < 0 then invalid_arg "Device.create: mem_bits";
  {
    block_bits;
    data = Bytes.make 4096 '\000';
    used_bits = 0;
    pool =
      Buffer_pool.create ~policy:pool_policy
        ~capacity_blocks:(mem_bits / block_bits) ();
    stats = Stats.create ();
    read_before_write;
    generation = 0;
    fault = None;
    last_block = min_int;
    ledger = None;
  }

let block_bits t = t.block_bits
let stats t = t.stats
let pool t = t.pool
let generation t = t.generation
let set_fault t f = t.fault <- Some f
let clear_fault t = t.fault <- None
let fault t = t.fault
let reset_stats t =
  Stats.reset t.stats;
  t.last_block <- min_int

let set_ledger t l = t.ledger <- Some l
let clear_ledger t = t.ledger <- None
let ledger t = t.ledger

let with_component t name f =
  match t.ledger with
  | None -> f ()
  | Some l -> Obs.Ledger.with_component l name f
let clear_pool t = Buffer_pool.clear t.pool
let used_bits t = t.used_bits

let ensure t bits =
  let need = (bits + 7) / 8 in
  if need > Bytes.length t.data then begin
    let cap = max need (2 * Bytes.length t.data) in
    let data = Bytes.make cap '\000' in
    Bytes.blit t.data 0 data 0 (Bytes.length t.data);
    t.data <- data
  end

let alloc ?(align_block = false) t len =
  if len < 0 then invalid_arg "Device.alloc";
  let off =
    if align_block then
      (t.used_bits + t.block_bits - 1) / t.block_bits * t.block_bits
    else t.used_bits
  in
  let before = t.used_bits in
  t.used_bits <- off + len;
  (* Charge the requested length to the current component and any
     alignment padding to the dedicated "padding" component (PR 7), so
     each component holds exactly its extents' bits and the components
     still sum to [used_bits] exactly. *)
  (match t.ledger with
  | Some l ->
      Obs.Ledger.add l len;
      Obs.Ledger.add_to l Obs.Ledger.padding (off - before)
  | None -> ());
  t.generation <- t.generation + 1;
  ensure t t.used_bits;
  { off; len }

(* Seek accounting over transfers that missed the pool: entering block
   [blk] after a transfer to anything other than [blk] or [blk - 1]
   costs one seek, and so does the first transfer after [reset_stats]
   (every run of contiguous transfers pays one seek at its start).
   Pool hits move no data, so they leave the head position alone. *)
let note_seek t blk =
  if blk <> t.last_block && blk <> t.last_block + 1 then begin
    t.stats.Stats.seeks <- t.stats.Stats.seeks + 1;
    Obs.Metrics.incr m_seeks
  end;
  t.last_block <- blk

let block_event name blk =
  if !Obs.Trace.on then
    Obs.Trace.instant ~cat:"dev" ~attrs:[ ("block", Obs.Trace.Int blk) ] name

(* A transient fault fails the access before the pool is consulted (so
   the failed block is not cached and a bounded failure budget drains
   access by access); the attempt is still charged as a block read. *)
let check_transient t blk =
  match t.fault with
  | Some f when Fault.read_fails f ~block:blk ->
      t.stats.Stats.block_reads <- t.stats.Stats.block_reads + 1;
      t.stats.Stats.faults_injected <- t.stats.Stats.faults_injected + 1;
      Obs.Metrics.incr m_block_reads;
      Obs.Metrics.incr m_faults;
      note_seek t blk;
      block_event "fault" blk;
      raise
        (Secidx_error.IO_error
           (Printf.sprintf "Device: transient read failure on block %d" blk))
  | _ -> ()

(* A re-hit of the block just hit only counts (see [Buffer_pool.rehit]);
   its prefetch flag is already clear, so [consume_prefetch] is skipped. *)
let touch_read t blk =
  check_transient t blk;
  let rehit = Buffer_pool.rehit t.pool blk in
  if rehit || Buffer_pool.access t.pool blk then begin
    t.stats.Stats.pool_hits <- t.stats.Stats.pool_hits + 1;
    Obs.Metrics.incr m_pool_hits;
    if (not rehit) && Buffer_pool.consume_prefetch t.pool blk then begin
      t.stats.Stats.prefetch_hits <- t.stats.Stats.prefetch_hits + 1;
      Obs.Metrics.incr m_prefetch_hits
    end;
    block_event "hit" blk
  end
  else begin
    t.stats.Stats.block_reads <- t.stats.Stats.block_reads + 1;
    Obs.Metrics.incr m_block_reads;
    note_seek t blk;
    block_event "read" blk
  end

(* [touches] consecutive [touch_read]s of [blk], the way the decoder's
   block runs charge: real accesses until the re-hit memo holds [blk],
   then the rest of the run in one count ([Buffer_pool.rehits]; a
   rehit leaves the head, the prefetch flags and the fault plan
   alone).  An armed fault plan takes the per-touch loop, so each
   access meets its transient check.  A pool-less device never arms
   the memo, so there every touch is a [touch_read]. *)
let touch_read_run t blk touches =
  let left = ref touches in
  while !left > 0 do
    if t.fault = None && Buffer_pool.rehits t.pool blk !left then begin
      t.stats.Stats.pool_hits <- t.stats.Stats.pool_hits + !left;
      Obs.Metrics.incr ~by:!left m_pool_hits;
      if !Obs.Trace.on then
        for _ = 1 to !left do
          block_event "hit" blk
        done;
      left := 0
    end
    else begin
      touch_read t blk;
      decr left
    end
  done

let touch_write t blk =
  if Buffer_pool.access t.pool blk then begin
    t.stats.Stats.pool_hits <- t.stats.Stats.pool_hits + 1;
    Obs.Metrics.incr m_pool_hits;
    block_event "hit" blk
  end
  else begin
    if t.read_before_write then begin
      t.stats.Stats.block_reads <- t.stats.Stats.block_reads + 1;
      Obs.Metrics.incr m_block_reads
    end;
    t.stats.Stats.block_writes <- t.stats.Stats.block_writes + 1;
    Obs.Metrics.incr m_block_writes;
    note_seek t blk;
    block_event "write" blk
  end

(* A range touches each covering block exactly once per call.  When
   the pool is disabled every access is a miss, so the counters are a
   pure function of the block count — compute it arithmetically
   instead of looping block by block. *)
let touch_range t ~pos ~len kind =
  if len > 0 then begin
    let first = pos / t.block_bits and last = (pos + len - 1) / t.block_bits in
    if Buffer_pool.capacity t.pool = 0 && t.fault = None then begin
      let nblocks = last - first + 1 in
      (match kind with
      | `Read ->
          t.stats.Stats.block_reads <- t.stats.Stats.block_reads + nblocks;
          Obs.Metrics.incr ~by:nblocks m_block_reads
      | `Write ->
          if t.read_before_write then begin
            t.stats.Stats.block_reads <- t.stats.Stats.block_reads + nblocks;
            Obs.Metrics.incr ~by:nblocks m_block_reads
          end;
          t.stats.Stats.block_writes <- t.stats.Stats.block_writes + nblocks;
          Obs.Metrics.incr ~by:nblocks m_block_writes);
      (* Same seek rule as the per-block loop, arithmetically: blocks
         inside the range are contiguous, so the only candidate seek
         is at [first]. *)
      if first <> t.last_block && first <> t.last_block + 1 then begin
        t.stats.Stats.seeks <- t.stats.Stats.seeks + 1;
        Obs.Metrics.incr m_seeks
      end;
      t.last_block <- last;
      if !Obs.Trace.on then
        let name = match kind with `Read -> "read" | `Write -> "write" in
        for blk = first to last do
          block_event name blk
        done
    end
    else
      match kind with
      | `Read ->
          for blk = first to last do
            touch_read t blk
          done
      | `Write ->
          for blk = first to last do
            touch_write t blk
          done
  end

(* Crash-kill check (PR 8): consulted by every counted write after the
   transfer has been charged (the I/O was issued; dying mid-write does
   not refund it).  When the armed crash fires, [persist keep] stores
   the surviving prefix of the transfer and the device raises
   [Crashed].  Deliberately independent of the pool: the kill point is
   a deterministic function of the write sequence alone, so a sweep
   can enumerate every boundary. *)
let check_crash t ~pos ~len ~persist =
  match t.fault with
  | Some f when len > 0 -> (
      let nblocks =
        (pos + len - 1) / t.block_bits - (pos / t.block_bits) + 1
      in
      match Fault.note_blocks_written f ~nblocks with
      | None -> ()
      | Some keep ->
          t.stats.Stats.faults_injected <- t.stats.Stats.faults_injected + 1;
          Obs.Metrics.incr m_faults;
          persist keep;
          Secidx_error.crashed
            "Device: process killed during write of %d blocks at bit %d \
             (%d persisted)"
            nblocks pos keep)
  | _ -> ()

(* Raw (uncounted) bit access on the backing store: word-at-a-time
   via the shared Bitops primitives. *)

let raw_read_bits t ~pos ~width = Bitio.Bitops.get_bits t.data ~pos ~width
let raw_write_bits t ~pos ~width v = Bitio.Bitops.set_bits t.data ~pos ~width v

let check_range t ~pos ~width name =
  if width < 0 || width > 62 then invalid_arg (name ^ ": width");
  if pos < 0 || pos + width > t.used_bits then invalid_arg (name ^ ": range")

let read_bits t ~pos ~width =
  check_range t ~pos ~width "Device.read_bits";
  touch_range t ~pos ~len:width `Read;
  t.stats.Stats.bits_read <- t.stats.Stats.bits_read + width;
  raw_read_bits t ~pos ~width

let write_bits t ~pos ~width v =
  check_range t ~pos ~width "Device.write_bits";
  t.generation <- t.generation + 1;
  touch_range t ~pos ~len:width `Write;
  t.stats.Stats.bits_written <- t.stats.Stats.bits_written + width;
  check_crash t ~pos ~len:width ~persist:(fun keep ->
      if keep > 0 then begin
        let kept_end = ((pos / t.block_bits) + keep) * t.block_bits in
        let w = min width (kept_end - pos) in
        if w > 0 then raw_write_bits t ~pos ~width:w (v lsr (width - w))
      end);
  raw_write_bits t ~pos ~width v

(* Persist only the first [keep_blocks] blocks' worth of [buf] at
   [region.off] — the surviving prefix of a torn or crash-interrupted
   transfer; the tail of the extent keeps whatever it held before. *)
let persist_prefix t region buf ~len ~keep_blocks =
  let first = region.off / t.block_bits in
  let kept_end = (first + keep_blocks) * t.block_bits in
  let kept = max 0 (min len (kept_end - region.off)) in
  let src = Bitio.Bitbuf.backing buf in
  let i = ref 0 in
  while !i < kept do
    let w = min 62 (kept - !i) in
    Bitio.Bitops.set_bits t.data ~pos:(region.off + !i) ~width:w
      (Bitio.Bitops.get_bits src ~pos:!i ~width:w);
    i := !i + w
  done

let write_buf t region buf =
  let len = Bitio.Bitbuf.length buf in
  if len > region.len then invalid_arg "Device.write_buf: buffer too long";
  t.generation <- t.generation + 1;
  touch_range t ~pos:region.off ~len `Write;
  t.stats.Stats.bits_written <- t.stats.Stats.bits_written + len;
  check_crash t ~pos:region.off ~len ~persist:(fun keep ->
      persist_prefix t region buf ~len ~keep_blocks:keep);
  let nblocks =
    if len = 0 then 0
    else (region.off + len - 1) / t.block_bits - (region.off / t.block_bits) + 1
  in
  let tear =
    match t.fault with
    | Some f when nblocks > 1 -> Fault.note_multiblock_write f
    | _ -> None
  in
  match tear with
  | None -> Bitio.Bitbuf.blit_to_bytes buf t.data ~dst_bit:region.off
  | Some keep_blocks ->
      (* Torn write: the transfer was issued (and charged above), but
         only the first [keep_blocks] blocks persist. *)
      t.stats.Stats.faults_injected <- t.stats.Stats.faults_injected + 1;
      Obs.Metrics.incr m_faults;
      persist_prefix t region buf ~len ~keep_blocks

let store ?align_block t buf =
  let region = alloc ?align_block t (Bitio.Bitbuf.length buf) in
  write_buf t region buf;
  region

let read_region t region =
  if region.off < 0 || region.off + region.len > t.used_bits then
    invalid_arg "Device.read_region: range";
  touch_range t ~pos:region.off ~len:region.len `Read;
  t.stats.Stats.bits_read <- t.stats.Stats.bits_read + region.len;
  let buf = Bitio.Bitbuf.create ~capacity:region.len () in
  Bitio.Bitbuf.append_bytes buf t.data ~src_bit:region.off ~len:region.len;
  buf

let stale gen t name =
  if t.generation <> gen then
    raise
      (Secidx_error.Stale_decoder
         (Printf.sprintf
            "%s: device mutated since snapshot (generation %d, now %d)" name
            gen t.generation))

(* Buffered word-at-a-time decoder over the device.  Counting happens
   in the charge callbacks, which the decoder invokes on *consumed*
   bits (cache refills are free): once per bit range, or, in the bulk
   gamma kernel, once per block run.  Either way [bits_read] and the
   touched-block sequence match per-bit read semantics: the
   same bits are charged, in stream order, exactly once.  The decoder
   snapshots [t.data] at the device's current generation; the charge
   callbacks refuse to deliver bits once a later alloc/write moves the
   generation (the snapshot may be a detached byte store), raising
   [Secidx_error.Stale_decoder] instead of silently reading old
   bytes. *)
let decoder t ~pos =
  if pos < 0 || pos > t.used_bits then invalid_arg "Device.decoder";
  let gen = t.generation in
  let charge ~pos ~len =
    stale gen t "Device.decoder";
    touch_range t ~pos ~len `Read;
    t.stats.Stats.bits_read <- t.stats.Stats.bits_read + len
  in
  let charge_run ~block ~touches ~bits =
    stale gen t "Device.decoder";
    touch_read_run t block touches;
    t.stats.Stats.bits_read <- t.stats.Stats.bits_read + bits
  in
  let d =
    Bitio.Decoder.counted ~data:t.data ~pos ~limit:t.used_bits
      ~block_bits:t.block_bits ~charge ~charge_run
  in
  (* Refill observation: installed only when tracing is already on, so
     an untraced decode pays exactly one [None] branch per refill. *)
  if !Obs.Trace.on then
    Bitio.Decoder.set_on_refill d (fun ~pos ~len ->
        Obs.Trace.instant ~cat:"dec"
          ~attrs:[ ("pos", Obs.Trace.Int pos); ("len", Obs.Trace.Int len) ]
          "refill");
  d

let blocks_spanned t ~pos ~len =
  if len <= 0 then 0
  else (pos + len - 1) / t.block_bits - (pos / t.block_bits) + 1

(* Readahead: transfer the blocks covering [pos, pos+len) into the
   pool ahead of demand.  Each transferred block is a real block read
   (charged in [block_reads] and [prefetches]); blocks already
   resident move no data and cost nothing.  The transfer is
   sequential, so at most one seek is paid for the whole range — that,
   not fewer transfers, is what readahead buys.  Advisory: a no-op
   when the pool is off or a fault plan is armed (faults must land on
   demand accesses, where detection and retry policies apply). *)
let prefetch t ~pos ~len =
  if len < 0 || pos < 0 || pos + len > t.used_bits then
    invalid_arg "Device.prefetch";
  if len > 0 && Buffer_pool.capacity t.pool > 0 && t.fault = None then begin
    let first = pos / t.block_bits and last = (pos + len - 1) / t.block_bits in
    for blk = first to last do
      if Buffer_pool.insert_prefetched t.pool blk then begin
        t.stats.Stats.block_reads <- t.stats.Stats.block_reads + 1;
        t.stats.Stats.prefetches <- t.stats.Stats.prefetches + 1;
        Obs.Metrics.incr m_block_reads;
        Obs.Metrics.incr m_prefetches;
        note_seek t blk;
        block_event "prefetch" blk
      end
    done
  end

(* --- fault injection and recovery (PR 3) --------------------------- *)

(* Latent corruption: flip [count] seeded pseudo-random bits anywhere
   in the allocated space.  Applied raw (uncounted) — the damage is on
   the medium, not an access.  Returns the flipped positions so tests
   and campaigns can report where the damage landed. *)
let inject_bit_flips t ~seed ~count =
  if count < 0 then invalid_arg "Device.inject_bit_flips";
  if t.used_bits = 0 then []
  else begin
    let rng = Fault.Rng.create seed in
    let flips =
      List.init count (fun _ -> Fault.Rng.int rng t.used_bits)
    in
    List.iter
      (fun i ->
        let b = i lsr 3 and m = 0x80 lsr (i land 7) in
        Bytes.unsafe_set t.data b
          (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.data b) lxor m)))
      flips;
    t.stats.Stats.faults_injected <-
      t.stats.Stats.faults_injected + List.length flips;
    Obs.Metrics.incr ~by:(List.length flips) m_faults;
    flips
  end

(* Bounded-retry policy for transient faults: re-run [f] after an
   [IO_error], up to [attempts] total tries.  The re-run cost is
   expressed in counted I/Os — every attempt's accesses (including the
   charged failed access itself) land in [stats], and each re-run adds
   one to [stats.retries].  [backoff] (PR 8) prices the stall between
   attempts: before re-running attempt [k + 1] the policy charges
   [backoff ~attempt:k] simulated I/O ticks to [stats.backoff_ios],
   so an exponential-backoff retry storm is visible in traces and
   benches, not just in its re-executed reads.  Only [IO_error] is
   retried: a [Crashed] kill means the writer is dead and recovery
   must run instead, and [Corrupt] means retrying would re-read the
   same damaged bits. *)
let with_retries ?(attempts = 3) ?backoff t f =
  if attempts < 1 then invalid_arg "Device.with_retries";
  let rec go k =
    try f ()
    with Secidx_error.IO_error _ when k < attempts ->
      t.stats.Stats.retries <- t.stats.Stats.retries + 1;
      Obs.Metrics.incr m_retries;
      (match backoff with
      | None -> ()
      | Some cost ->
          let c = cost ~attempt:k in
          if c < 0 then invalid_arg "Device.with_retries: negative backoff";
          t.stats.Stats.backoff_ios <- t.stats.Stats.backoff_ios + c;
          Obs.Metrics.incr ~by:c m_backoff_ios);
      go (k + 1)
  in
  go 1

(* Uncounted CRC of a raw extent — used by [Frame] to seal content the
   writer just produced (it had the bits in memory, so hashing them
   costs no simulated I/O).  Verification, by contrast, goes through
   counted reads. *)
let raw_crc32 t ~pos ~len =
  if pos < 0 || len < 0 || pos + len > t.used_bits then
    invalid_arg "Device.raw_crc32";
  Bitio.Crc.finish (Bitio.Crc.of_bits t.data ~pos ~len)
