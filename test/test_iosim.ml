(* Tests for the simulated block device, buffer pool and counters. *)

let qcheck = QCheck_alcotest.to_alcotest

let device ?(read_before_write = true) ?(block_bits = 64) ?(mem_bits = 0) () =
  Iosim.Device.create ~read_before_write ~block_bits ~mem_bits ()

let test_lru_basics () =
  let pool = Iosim.Buffer_pool.create ~capacity_blocks:2 () in
  Alcotest.(check bool) "miss 1" false (Iosim.Buffer_pool.access pool 1);
  Alcotest.(check bool) "miss 2" false (Iosim.Buffer_pool.access pool 2);
  Alcotest.(check bool) "hit 1" true (Iosim.Buffer_pool.access pool 1);
  (* 2 is now LRU; inserting 3 evicts it. *)
  Alcotest.(check bool) "miss 3" false (Iosim.Buffer_pool.access pool 3);
  Alcotest.(check bool) "2 evicted" false (Iosim.Buffer_pool.mem pool 2);
  Alcotest.(check bool) "1 kept" true (Iosim.Buffer_pool.mem pool 1);
  Alcotest.(check int) "occupancy" 2 (Iosim.Buffer_pool.occupancy pool)

let test_lru_zero_capacity () =
  let pool = Iosim.Buffer_pool.create ~capacity_blocks:0 () in
  Alcotest.(check bool) "never hits" false (Iosim.Buffer_pool.access pool 1);
  Alcotest.(check bool) "again" false (Iosim.Buffer_pool.access pool 1)

let test_lru_invalidate () =
  let pool = Iosim.Buffer_pool.create ~capacity_blocks:4 () in
  ignore (Iosim.Buffer_pool.access pool 7);
  Iosim.Buffer_pool.invalidate pool 7;
  Alcotest.(check bool) "gone" false (Iosim.Buffer_pool.mem pool 7);
  Alcotest.(check int) "occupancy" 0 (Iosim.Buffer_pool.occupancy pool)

(* --- segmented (scan-resistant) pool policy (PR 5) --------------- *)

let seg_pool capacity_blocks =
  Iosim.Buffer_pool.create ~policy:`Segmented ~capacity_blocks ()

(* Miss/hit behaviour and eviction order under `Segmented: blocks live
   in probation until re-accessed; probation evicts before protected. *)
let test_segmented_eviction_order () =
  let pool = seg_pool 4 in
  (* protected cap = 2 *)
  Alcotest.(check bool) "miss 1" false (Iosim.Buffer_pool.access pool 1);
  Alcotest.(check bool) "miss 2" false (Iosim.Buffer_pool.access pool 2);
  Alcotest.(check bool) "hit 1 promotes" true (Iosim.Buffer_pool.access pool 1);
  Alcotest.(check int) "protected" 1 (Iosim.Buffer_pool.protected_occupancy pool);
  (* Fill with never-reused blocks: 3, 4, 5, 6 — the probationary tail
     (2, then 3, ...) goes first; promoted 1 survives the whole scan. *)
  ignore (Iosim.Buffer_pool.access pool 3);
  ignore (Iosim.Buffer_pool.access pool 4);
  ignore (Iosim.Buffer_pool.access pool 5);
  ignore (Iosim.Buffer_pool.access pool 6);
  Alcotest.(check bool) "2 evicted" false (Iosim.Buffer_pool.mem pool 2);
  Alcotest.(check bool) "3 evicted" false (Iosim.Buffer_pool.mem pool 3);
  Alcotest.(check bool) "1 kept" true (Iosim.Buffer_pool.mem pool 1);
  Alcotest.(check int) "occupancy" 4 (Iosim.Buffer_pool.occupancy pool);
  let c = Iosim.Buffer_pool.counters pool in
  Alcotest.(check int) "promotions" 1 c.Iosim.Buffer_pool.promotions;
  Alcotest.(check int) "no reused block lost" 0
    c.Iosim.Buffer_pool.evicted_reused

let test_segmented_zero_capacity () =
  let pool = seg_pool 0 in
  Alcotest.(check bool) "never hits" false (Iosim.Buffer_pool.access pool 1);
  Alcotest.(check bool) "again" false (Iosim.Buffer_pool.access pool 1);
  Alcotest.(check bool) "no prefetch" false
    (Iosim.Buffer_pool.insert_prefetched pool 1)

(* Capacity 1: protected segment is empty, behaves exactly like LRU. *)
let test_segmented_capacity_one () =
  let pool = seg_pool 1 in
  Alcotest.(check bool) "miss 1" false (Iosim.Buffer_pool.access pool 1);
  Alcotest.(check bool) "hit 1" true (Iosim.Buffer_pool.access pool 1);
  Alcotest.(check int) "nothing protected" 0
    (Iosim.Buffer_pool.protected_occupancy pool);
  Alcotest.(check bool) "miss 2 evicts 1" false
    (Iosim.Buffer_pool.access pool 2);
  Alcotest.(check bool) "1 gone" false (Iosim.Buffer_pool.mem pool 1);
  Alcotest.(check int) "occupancy" 1 (Iosim.Buffer_pool.occupancy pool)

let test_segmented_invalidate () =
  let pool = seg_pool 4 in
  ignore (Iosim.Buffer_pool.access pool 7);
  ignore (Iosim.Buffer_pool.access pool 7);
  (* promoted *)
  Iosim.Buffer_pool.invalidate pool 7;
  Alcotest.(check bool) "gone" false (Iosim.Buffer_pool.mem pool 7);
  Alcotest.(check int) "occupancy" 0 (Iosim.Buffer_pool.occupancy pool);
  Alcotest.(check int) "protected empty" 0
    (Iosim.Buffer_pool.protected_occupancy pool);
  (* re-insert after invalidate is a plain miss into probation *)
  Alcotest.(check bool) "miss again" false (Iosim.Buffer_pool.access pool 7)

(* Re-access promotion is what distinguishes the policies: under LRU a
   re-accessed block only moves to the list head; under `Segmented it
   changes segment and gains scan immunity. *)
let test_segmented_promotion_bounded () =
  let pool = seg_pool 4 in
  (* promote three blocks into a protected segment that holds two:
     the protected tail is demoted back to probation, never evicted on
     a hit. *)
  List.iter
    (fun b ->
      ignore (Iosim.Buffer_pool.access pool b);
      ignore (Iosim.Buffer_pool.access pool b))
    [ 1; 2; 3 ];
  Alcotest.(check int) "protected capped at capacity/2" 2
    (Iosim.Buffer_pool.protected_occupancy pool);
  Alcotest.(check int) "all still resident" 3
    (Iosim.Buffer_pool.occupancy pool)

(* The scan-resistance regression (PR 5 acceptance): a hot, re-accessed
   working set followed by a long sequential scan of cold blocks.  The
   segmented pool keeps every hot block resident and never evicts a
   reused block; LRU flushes all of them. *)
let test_scan_resistance () =
  let hot = [ 1; 2; 3; 4 ] in
  let run policy =
    let pool = Iosim.Buffer_pool.create ~policy ~capacity_blocks:8 () in
    List.iter (fun b -> ignore (Iosim.Buffer_pool.access pool b)) hot;
    List.iter (fun b -> ignore (Iosim.Buffer_pool.access pool b)) hot;
    (* sequential scan of 64 cold blocks, none re-accessed *)
    for b = 100 to 163 do
      ignore (Iosim.Buffer_pool.access pool b)
    done;
    pool
  in
  let seg = run `Segmented in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "segmented keeps hot block %d" b)
        true
        (Iosim.Buffer_pool.mem seg b))
    hot;
  let c = Iosim.Buffer_pool.counters seg in
  Alcotest.(check int) "segmented loses no reused block" 0
    c.Iosim.Buffer_pool.evicted_reused;
  let lru = run `Lru in
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "lru loses hot block %d" b)
        false
        (Iosim.Buffer_pool.mem lru b))
    hot;
  let c = Iosim.Buffer_pool.counters lru in
  Alcotest.(check bool) "lru evicts reused blocks" true
    (c.Iosim.Buffer_pool.evicted_reused > 0)

(* Prefetch bookkeeping: insert_prefetched transfers once, the first
   demand access consumes the flag, and a prefetched block behaves like
   any probationary resident thereafter. *)
let test_prefetch_flags () =
  let pool = seg_pool 4 in
  Alcotest.(check bool) "prefetch transfers" true
    (Iosim.Buffer_pool.insert_prefetched pool 9);
  Alcotest.(check bool) "already resident" false
    (Iosim.Buffer_pool.insert_prefetched pool 9);
  Alcotest.(check bool) "flag set once" true
    (Iosim.Buffer_pool.consume_prefetch pool 9);
  Alcotest.(check bool) "flag cleared" false
    (Iosim.Buffer_pool.consume_prefetch pool 9);
  Alcotest.(check bool) "demand access hits" true
    (Iosim.Buffer_pool.access pool 9)

(* A write hit does not consume a prefetch flag, so the read that
   follows it (a re-hit of the same block) must still count the
   prefetch hit; the read after that is a plain re-hit. *)
let test_prefetch_hit_after_write_hit () =
  let dev = device ~block_bits:64 ~mem_bits:(4 * 64) () in
  ignore (Iosim.Device.alloc dev 256);
  Iosim.Device.prefetch dev ~pos:0 ~len:64;
  Iosim.Device.write_bits dev ~pos:0 ~width:8 0xff;
  ignore (Iosim.Device.read_bits dev ~pos:0 ~width:8);
  ignore (Iosim.Device.read_bits dev ~pos:8 ~width:8);
  let s = Iosim.Device.stats dev in
  Alcotest.(check int) "prefetch hits" 1 s.Iosim.Stats.prefetch_hits;
  Alcotest.(check int) "pool hits" 3 s.Iosim.Stats.pool_hits

let test_store_and_read () =
  let dev = device () in
  let buf = Bitio.Bitbuf.of_int ~width:40 0xdeadbeef0 in
  let region = Iosim.Device.store dev buf in
  Alcotest.(check int) "region len" 40 region.Iosim.Device.len;
  let back = Iosim.Device.read_region dev region in
  Alcotest.(check bool) "roundtrip" true (Bitio.Bitbuf.equal buf back)

let test_read_counts_blocks () =
  let dev = device ~block_bits:64 () in
  let buf = Bitio.Bitbuf.create () in
  for i = 0 to 255 do
    Bitio.Bitbuf.write_bits buf ~width:8 (i land 0xff)
  done;
  (* 2048 bits = 32 blocks of 64 bits. *)
  let region = Iosim.Device.store dev buf in
  Iosim.Device.reset_stats dev;
  ignore (Iosim.Device.read_region dev region);
  let st = Iosim.Device.stats dev in
  Alcotest.(check int) "block reads" 32 st.Iosim.Stats.block_reads;
  Alcotest.(check int) "bits read" 2048 st.Iosim.Stats.bits_read

let test_unaligned_read_touches_two_blocks () =
  let dev = device ~block_bits:64 () in
  ignore (Iosim.Device.alloc dev 256);
  Iosim.Device.write_bits dev ~pos:60 ~width:8 0xff;
  Iosim.Device.reset_stats dev;
  ignore (Iosim.Device.read_bits dev ~pos:60 ~width:8);
  Alcotest.(check int) "two blocks" 2
    (Iosim.Device.stats dev).Iosim.Stats.block_reads

let test_pool_absorbs_repeats () =
  let dev = device ~block_bits:64 ~mem_bits:(64 * 8) () in
  ignore (Iosim.Device.alloc dev 64);
  Iosim.Device.write_bits dev ~pos:0 ~width:32 17;
  Iosim.Device.reset_stats dev;
  Iosim.Device.clear_pool dev;
  for _ = 1 to 10 do
    ignore (Iosim.Device.read_bits dev ~pos:0 ~width:32)
  done;
  let st = Iosim.Device.stats dev in
  Alcotest.(check int) "one miss" 1 st.Iosim.Stats.block_reads;
  Alcotest.(check int) "nine hits" 9 st.Iosim.Stats.pool_hits

let test_write_read_before_write () =
  let dev = device ~block_bits:64 () in
  ignore (Iosim.Device.alloc dev 64);
  Iosim.Device.reset_stats dev;
  Iosim.Device.write_bits dev ~pos:0 ~width:8 0xab;
  let st = Iosim.Device.stats dev in
  Alcotest.(check int) "write" 1 st.Iosim.Stats.block_writes;
  Alcotest.(check int) "rmw read" 1 st.Iosim.Stats.block_reads

let test_write_no_rmw () =
  let dev = device ~read_before_write:false ~block_bits:64 () in
  ignore (Iosim.Device.alloc dev 64);
  Iosim.Device.reset_stats dev;
  Iosim.Device.write_bits dev ~pos:0 ~width:8 0xab;
  let st = Iosim.Device.stats dev in
  Alcotest.(check int) "write" 1 st.Iosim.Stats.block_writes;
  Alcotest.(check int) "no read" 0 st.Iosim.Stats.block_reads

let test_alloc_alignment () =
  let dev = device ~block_bits:64 () in
  let r1 = Iosim.Device.alloc dev 10 in
  let r2 = Iosim.Device.alloc ~align_block:true dev 20 in
  Alcotest.(check int) "r1 at 0" 0 r1.Iosim.Device.off;
  Alcotest.(check int) "r2 aligned" 64 r2.Iosim.Device.off;
  Alcotest.(check int) "used" 84 (Iosim.Device.used_bits dev)

let test_cursor_sequential () =
  let dev = device ~block_bits:64 () in
  let buf = Bitio.Bitbuf.create () in
  List.iter (Bitio.Codes.encode_gamma buf) [ 5; 1; 9; 100; 3 ];
  let region = Iosim.Device.store dev buf in
  Iosim.Device.reset_stats dev;
  let r = Oracle.Device.cursor dev ~pos:region.Iosim.Device.off in
  let decoded = List.init 5 (fun _ -> Oracle.Codes.decode_gamma r) in
  Alcotest.(check (list int)) "decoded" [ 5; 1; 9; 100; 3 ] decoded;
  (* Sequential decode of a short stream should touch each block once:
     with no pool every bit-read re-touches, so enable a pool. *)
  let dev2 = device ~block_bits:64 ~mem_bits:(4 * 64) () in
  let region2 = Iosim.Device.store dev2 buf in
  Iosim.Device.reset_stats dev2;
  Iosim.Device.clear_pool dev2;
  let r2 = Oracle.Device.cursor dev2 ~pos:region2.Iosim.Device.off in
  for _ = 1 to 5 do
    ignore (Oracle.Codes.decode_gamma r2)
  done;
  let blocks = Iosim.Device.blocks_spanned dev2 ~pos:0 ~len:(Bitio.Bitbuf.length buf) in
  Alcotest.(check int) "touch each block once"
    blocks
    (Iosim.Device.stats dev2).Iosim.Stats.block_reads

let test_decoder_sequential () =
  (* Same shape as the cursor test, on the buffered word decoder: the
     values and the block touches must not change. *)
  let dev = device ~block_bits:64 ~mem_bits:(4 * 64) () in
  let buf = Bitio.Bitbuf.create () in
  List.iter (Bitio.Codes.encode_gamma buf) [ 5; 1; 9; 100; 3 ];
  let region = Iosim.Device.store dev buf in
  Iosim.Device.reset_stats dev;
  Iosim.Device.clear_pool dev;
  let d = Iosim.Device.decoder dev ~pos:region.Iosim.Device.off in
  let decoded = List.init 5 (fun _ -> Bitio.Codes.decode_gamma d) in
  Alcotest.(check (list int)) "decoded" [ 5; 1; 9; 100; 3 ] decoded;
  let blocks =
    Iosim.Device.blocks_spanned dev ~pos:0 ~len:(Bitio.Bitbuf.length buf)
  in
  Alcotest.(check int) "touch each block once" blocks
    (Iosim.Device.stats dev).Iosim.Stats.block_reads;
  Alcotest.(check int) "bits_read = stream length"
    (Bitio.Bitbuf.length buf)
    (Iosim.Device.stats dev).Iosim.Stats.bits_read

let test_blocks_spanned () =
  let dev = device ~block_bits:128 () in
  Alcotest.(check int) "empty" 0 (Iosim.Device.blocks_spanned dev ~pos:5 ~len:0);
  Alcotest.(check int) "inside" 1
    (Iosim.Device.blocks_spanned dev ~pos:5 ~len:100);
  Alcotest.(check int) "straddle" 2
    (Iosim.Device.blocks_spanned dev ~pos:100 ~len:100);
  Alcotest.(check int) "many" 3
    (Iosim.Device.blocks_spanned dev ~pos:0 ~len:300)

let test_stats_diff () =
  let a = Iosim.Stats.create () in
  a.Iosim.Stats.block_reads <- 3;
  let before = Iosim.Stats.snapshot a in
  a.Iosim.Stats.block_reads <- 10;
  a.Iosim.Stats.block_writes <- 2;
  let d = Iosim.Stats.diff ~before ~after:(Iosim.Stats.snapshot a) in
  Alcotest.(check int) "reads" 7 d.Iosim.Stats.block_reads;
  Alcotest.(check int) "ios" 9 (Iosim.Stats.ios d)

let prop_device_roundtrip =
  QCheck.Test.make ~count:100 ~name:"device stores arbitrary bit strings"
    QCheck.(list (int_range 0 1))
    (fun bits ->
      let dev = device ~block_bits:64 () in
      let buf = Bitio.Bitbuf.create () in
      List.iter (fun b -> Bitio.Bitbuf.write_bit buf (b = 1)) bits;
      let region = Iosim.Device.store dev buf in
      let back = Iosim.Device.read_region dev region in
      Bitio.Bitbuf.equal buf back)

let prop_adjacent_regions_independent =
  QCheck.Test.make ~count:100 ~name:"adjacent unaligned regions do not clobber"
    QCheck.(pair (list (int_range 0 1)) (list (int_range 0 1)))
    (fun (xs, ys) ->
      let dev = device ~block_bits:64 () in
      let mk bits =
        let b = Bitio.Bitbuf.create () in
        List.iter (fun v -> Bitio.Bitbuf.write_bit b (v = 1)) bits;
        b
      in
      let a = mk xs and b = mk ys in
      let ra = Iosim.Device.store dev a in
      let rb = Iosim.Device.store dev b in
      Bitio.Bitbuf.equal a (Iosim.Device.read_region dev ra)
      && Bitio.Bitbuf.equal b (Iosim.Device.read_region dev rb))

let prop_lru_never_exceeds_capacity =
  QCheck.Test.make ~count:100 ~name:"lru occupancy bounded by capacity"
    QCheck.(pair (int_range 1 8) (list (int_range 0 20)))
    (fun (cap, accesses) ->
      let pool = Iosim.Buffer_pool.create ~capacity_blocks:cap () in
      List.iter (fun blk -> ignore (Iosim.Buffer_pool.access pool blk)) accesses;
      Iosim.Buffer_pool.occupancy pool <= cap)

let prop_lru_matches_reference =
  QCheck.Test.make ~count:100 ~name:"lru hit/miss matches reference model"
    QCheck.(pair (int_range 1 6) (list (int_range 0 10)))
    (fun (cap, accesses) ->
      let pool = Iosim.Buffer_pool.create ~capacity_blocks:cap () in
      (* Reference: list of blocks, most recent first. *)
      let model = ref [] in
      List.for_all
        (fun blk ->
          let hit = Iosim.Buffer_pool.access pool blk in
          let model_hit = List.mem blk !model in
          let without = List.filter (fun b -> b <> blk) !model in
          let trimmed =
            if List.length without >= cap && not model_hit then
              List.filteri (fun i _ -> i < cap - 1) without
            else without
          in
          model := blk :: trimmed;
          hit = model_hit)
        accesses)

(* The pool against [Ref_pool], a list-based model of the same rules
   with no re-hit memo.  Sequences favour long runs of accesses to one
   block (what per-codeword charging produces), each optionally
   followed by [consume_prefetch] as the device does, interleaved with
   readahead inserts, bare consumes, invalidations and clears.  Every
   result, the counters, both occupancies and the residency of every
   block must agree after every operation. *)
type pool_op =
  | Run of int * int * bool (* block, length, consume after each access *)
  | Prefetch of int
  | Consume of int
  | Invalidate of int
  | Clear

let pool_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map3 (fun b n c -> Run (b, n, c)) (int_range 0 9) (int_range 1 12) bool);
        (2, map (fun b -> Prefetch b) (int_range 0 9));
        (1, map (fun b -> Consume b) (int_range 0 9));
        (1, map (fun b -> Invalidate b) (int_range 0 9));
        (1, return Clear);
      ])

let prop_pool_matches_list_reference =
  QCheck.Test.make ~count:500 ~name:"buffer pool = list reference (lru, slru, re-hits)"
    (QCheck.make
       QCheck.Gen.(
         triple (int_range 0 6) bool (list_size (int_range 1 60) pool_op_gen)))
    (fun (capacity, segmented, ops) ->
      let policy = if segmented then `Segmented else `Lru in
      let pool = Iosim.Buffer_pool.create ~policy ~capacity_blocks:capacity () in
      let model = Ref_pool.create ~policy ~capacity in
      let same_state () =
        Iosim.Buffer_pool.counters pool = Ref_pool.counters model
        && Iosim.Buffer_pool.occupancy pool = Ref_pool.occupancy model
        && Iosim.Buffer_pool.protected_occupancy pool
           = Ref_pool.protected_occupancy model
        && List.for_all
             (fun b -> Iosim.Buffer_pool.mem pool b = Ref_pool.mem model b)
             (List.init 10 Fun.id)
      in
      List.for_all
        (fun op ->
          let results_agree =
            match op with
            | Run (b, n, consume) ->
                List.for_all
                  (fun _ ->
                    Iosim.Buffer_pool.access pool b = Ref_pool.access model b
                    && ((not consume)
                       || Iosim.Buffer_pool.consume_prefetch pool b
                          = Ref_pool.consume_prefetch model b))
                  (List.init n Fun.id)
            | Prefetch b ->
                Iosim.Buffer_pool.insert_prefetched pool b
                = Ref_pool.insert_prefetched model b
            | Consume b ->
                Iosim.Buffer_pool.consume_prefetch pool b
                = Ref_pool.consume_prefetch model b
            | Invalidate b ->
                Iosim.Buffer_pool.invalidate pool b;
                Ref_pool.invalidate model b;
                true
            | Clear ->
                Iosim.Buffer_pool.clear pool;
                Ref_pool.clear model;
                true
          in
          results_agree && same_state ())
        ops)

(* --- differential tests across the word-at-a-time rewrite --- *)

(* Reference model of the seed counter semantics: a range touches each
   covering block once, every pool miss is a block read (plus a
   read-modify-write read and a write for write misses). *)
module Model = struct
  type t = {
    pool : Iosim.Buffer_pool.t;
    stats : Iosim.Stats.t;
    rbw : bool;
    block_bits : int;
    mutable last_block : int;
  }

  let create ?(rbw = true) ~block_bits ~capacity () =
    {
      pool = Iosim.Buffer_pool.create ~capacity_blocks:capacity ();
      stats = Iosim.Stats.create ();
      rbw;
      block_bits;
      last_block = min_int;
    }

  let touch_range m ~pos ~len kind =
    if len > 0 then begin
      let first = pos / m.block_bits and last = (pos + len - 1) / m.block_bits in
      for blk = first to last do
        if Iosim.Buffer_pool.access m.pool blk then
          m.stats.Iosim.Stats.pool_hits <- m.stats.Iosim.Stats.pool_hits + 1
        else begin
          (* PR 4 seek rule: a transfer to a block other than the last
             transferred block or its successor costs one seek. *)
          if blk <> m.last_block && blk <> m.last_block + 1 then
            m.stats.Iosim.Stats.seeks <- m.stats.Iosim.Stats.seeks + 1;
          m.last_block <- blk;
          match kind with
          | `Read ->
              m.stats.Iosim.Stats.block_reads <-
                m.stats.Iosim.Stats.block_reads + 1
          | `Write ->
              if m.rbw then
                m.stats.Iosim.Stats.block_reads <-
                  m.stats.Iosim.Stats.block_reads + 1;
              m.stats.Iosim.Stats.block_writes <-
                m.stats.Iosim.Stats.block_writes + 1
        end
      done
    end

  let read m ~pos ~len =
    touch_range m ~pos ~len `Read;
    m.stats.Iosim.Stats.bits_read <- m.stats.Iosim.Stats.bits_read + len

  let write m ~pos ~len =
    touch_range m ~pos ~len `Write;
    m.stats.Iosim.Stats.bits_written <- m.stats.Iosim.Stats.bits_written + len
end

let check_stats msg (expected : Iosim.Stats.t) (got : Iosim.Stats.t) =
  Alcotest.(check (list int))
    msg
    [
      expected.Iosim.Stats.block_reads;
      expected.Iosim.Stats.block_writes;
      expected.Iosim.Stats.pool_hits;
      expected.Iosim.Stats.bits_read;
      expected.Iosim.Stats.bits_written;
    ]
    [
      got.Iosim.Stats.block_reads;
      got.Iosim.Stats.block_writes;
      got.Iosim.Stats.pool_hits;
      got.Iosim.Stats.bits_read;
      got.Iosim.Stats.bits_written;
    ]

(* A scripted access trace whose counters were computed by hand from
   the seed (per-bit) implementation.  Any drift in the touch/counting
   semantics of the word-level rewrite shows up here. *)
let run_trace dev =
  ignore (Iosim.Device.alloc dev 300);
  Iosim.Device.write_bits dev ~pos:0 ~width:32 0xdeadbeef;
  Iosim.Device.write_bits dev ~pos:60 ~width:8 0xa5;
  ignore (Iosim.Device.read_bits dev ~pos:120 ~width:62);
  ignore (Iosim.Device.read_bits dev ~pos:0 ~width:10);
  let buf = Bitio.Bitbuf.create () in
  for i = 0 to 74 do
    Bitio.Bitbuf.write_bit buf (i land 3 = 0)
  done;
  let r = Iosim.Device.store dev buf in
  ignore (Iosim.Device.read_region dev r);
  ignore (Iosim.Device.read_region dev { Iosim.Device.off = 0; len = 300 })

let test_trace_counters_pooled () =
  let dev = device ~block_bits:64 ~mem_bits:(2 * 64) () in
  run_trace dev;
  let st = Iosim.Device.stats dev in
  Alcotest.(check int) "block_reads" 11 st.Iosim.Stats.block_reads;
  Alcotest.(check int) "block_writes" 4 st.Iosim.Stats.block_writes;
  Alcotest.(check int) "pool_hits" 4 st.Iosim.Stats.pool_hits;
  Alcotest.(check int) "bits_read" 447 st.Iosim.Stats.bits_read;
  Alcotest.(check int) "bits_written" 115 st.Iosim.Stats.bits_written

let test_trace_counters_no_pool () =
  let dev = device ~block_bits:64 ~mem_bits:0 () in
  run_trace dev;
  let st = Iosim.Device.stats dev in
  Alcotest.(check int) "block_reads" 15 st.Iosim.Stats.block_reads;
  Alcotest.(check int) "block_writes" 5 st.Iosim.Stats.block_writes;
  Alcotest.(check int) "pool_hits" 0 st.Iosim.Stats.pool_hits;
  Alcotest.(check int) "bits_read" 447 st.Iosim.Stats.bits_read;
  Alcotest.(check int) "bits_written" 115 st.Iosim.Stats.bits_written

let test_trace_counters_no_rmw () =
  let dev = device ~read_before_write:false ~block_bits:64 ~mem_bits:0 () in
  run_trace dev;
  let st = Iosim.Device.stats dev in
  Alcotest.(check int) "block_reads" 10 st.Iosim.Stats.block_reads;
  Alcotest.(check int) "block_writes" 5 st.Iosim.Stats.block_writes

(* Random traces: the device counters must match the reference model
   op for op, for pooled and pool-less devices alike. *)
let prop_stats_match_model =
  QCheck.Test.make ~count:300 ~name:"device counters match reference model"
    QCheck.(
      triple (int_range 0 3) bool
        (list_of_size (Gen.int_range 1 40)
           (triple (int_range 0 2) (int_range 0 1000) (int_range 0 62))))
    (fun (capacity, rbw, ops) ->
      let block_bits = 64 in
      let dev =
        device ~read_before_write:rbw ~block_bits
          ~mem_bits:(capacity * block_bits) ()
      in
      let model = Model.create ~rbw ~block_bits ~capacity () in
      ignore (Iosim.Device.alloc dev 1100);
      List.for_all
        (fun (kind, pos, width) ->
          let pos = min pos (1100 - width) in
          (match kind with
          | 0 -> ignore (Iosim.Device.read_bits dev ~pos ~width);
                 Model.read model ~pos ~len:width
          | 1 ->
              Iosim.Device.write_bits dev ~pos ~width
                (if width = 62 then max_int lsr 1 else (1 lsl width) - 1);
              Model.write model ~pos ~len:width
          | _ ->
              let len = min (3 * width) (1100 - pos) in
              ignore
                (Iosim.Device.read_region dev { Iosim.Device.off = pos; len });
              Model.read model ~pos ~len);
          let a = Iosim.Stats.snapshot (Iosim.Device.stats dev) in
          let b = Iosim.Stats.snapshot model.Model.stats in
          a = b)
        ops)

(* The word-level read_region must return the same bits and charge the
   same I/Os as the retained per-bit reference. *)
let prop_read_region_matches_naive =
  QCheck.Test.make ~count:200
    ~name:"read_region = read_region_naive (bits and counters)"
    QCheck.(
      triple (int_range 0 3) (int_range 0 100) (int_range 0 500))
    (fun (capacity, off, len) ->
      let mk () =
        let dev = device ~block_bits:64 ~mem_bits:(capacity * 64) () in
        ignore (Iosim.Device.alloc dev 700);
        let rng = Hashing.Universal.Rng.create ~seed:(off + (len * 1000)) in
        for i = 0 to 10 do
          Iosim.Device.write_bits dev ~pos:(i * 60) ~width:50
            (Hashing.Universal.Rng.below rng (1 lsl 50))
        done;
        dev
      in
      let d1 = mk () and d2 = mk () in
      let region = { Iosim.Device.off; len } in
      let snap d = Iosim.Stats.snapshot (Iosim.Device.stats d) in
      let s0 = snap d1 in
      let b1 = Iosim.Device.read_region d1 region in
      let b2 = Oracle.Device.read_region_naive d2 region in
      let s1 = snap d1 and s2 = snap d2 in
      let spanned = Iosim.Device.blocks_spanned d1 ~pos:off ~len in
      (* The oracle touches each spanned block once with a one-bit
         read, so every field but [bits_read] must match; [bits_read]
         is checked against the region length on its own. *)
      Bitio.Bitbuf.equal b1 b2
      && { s1 with Iosim.Stats.bits_read = 0 } = { s2 with bits_read = 0 }
      && s1.Iosim.Stats.bits_read - s0.Iosim.Stats.bits_read = len
      && s2.Iosim.Stats.bits_read - s0.Iosim.Stats.bits_read = spanned
      && s1.Iosim.Stats.block_reads - s0.Iosim.Stats.block_reads
         + (s1.Iosim.Stats.pool_hits - s0.Iosim.Stats.pool_hits)
         = spanned)

(* --- codec-rewrite regressions (PR 2) ------------------------------ *)

(* Fixed-width reads through Device.decoder charge exactly like the
   per-bit-era cursor at the same call widths: every counter agrees,
   pool hits included. *)
let test_decoder_matches_cursor_fixed_width () =
  let mk () =
    let dev = device ~block_bits:64 ~mem_bits:(2 * 64) () in
    let buf = Bitio.Bitbuf.create () in
    for i = 0 to 199 do
      Bitio.Bitbuf.write_bits buf ~width:13 ((i * 541) land 0x1fff)
    done;
    let region = Iosim.Device.store dev buf in
    Iosim.Device.reset_stats dev;
    Iosim.Device.clear_pool dev;
    (dev, region)
  in
  let dev1, r1 = mk () and dev2, r2 = mk () in
  let d = Iosim.Device.decoder dev1 ~pos:r1.Iosim.Device.off in
  let c = Oracle.Device.cursor dev2 ~pos:r2.Iosim.Device.off in
  for _ = 0 to 199 do
    Alcotest.(check int)
      "value" (c.Oracle.Reader.read_bits 13)
      (Bitio.Decoder.read_bits d 13)
  done;
  check_stats "identical counters (incl. pool hits)"
    (Iosim.Device.stats dev2) (Iosim.Device.stats dev1)

(* Run-based decode consumes in chunks instead of single bits, which
   may only reduce [pool_hits]; [block_reads] and [bits_read] — the
   quantities every experiment reports — must be identical to the
   retained per-bit reference. *)
let test_decoder_gamma_charges_like_cursor () =
  let values = List.init 300 (fun i -> 1 + (i * 37 mod 1000)) in
  let mk () =
    let dev = device ~block_bits:64 ~mem_bits:(3 * 64) () in
    let buf = Bitio.Bitbuf.create () in
    List.iter (Bitio.Codes.encode_gamma buf) values;
    let region = Iosim.Device.store dev buf in
    Iosim.Device.reset_stats dev;
    Iosim.Device.clear_pool dev;
    (dev, region)
  in
  let dev1, r1 = mk () and dev2, r2 = mk () in
  let d = Iosim.Device.decoder dev1 ~pos:r1.Iosim.Device.off in
  let c = Oracle.Device.cursor dev2 ~pos:r2.Iosim.Device.off in
  List.iter
    (fun v ->
      Alcotest.(check int) "new" v (Bitio.Codes.decode_gamma d);
      Alcotest.(check int) "ref" v (Oracle.Codes.decode_gamma c))
    values;
  let s1 = Iosim.Device.stats dev1 and s2 = Iosim.Device.stats dev2 in
  Alcotest.(check int) "block_reads" s2.Iosim.Stats.block_reads
    s1.Iosim.Stats.block_reads;
  Alcotest.(check int) "bits_read" s2.Iosim.Stats.bits_read
    s1.Iosim.Stats.bits_read

(* Theorem 2 payload parity: every extent of a gap-coded stream table
   decodes to the same positions through [Oracle.Stream_table.read_one]
   (the word decoder, through a fresh [Stream_table.Arena]) and through the per-bit oracle cursor on a twin
   device, for all four codes, and the two devices end with the same
   stats in every field ([pool_hits] aside: see
   [Oracle.Stream_table.stats_mismatches]).  Decode speed must not change
   what the simulator charges. *)
let test_theorem2_trace_codec_parity () =
  let n = 3000 and sigma = 24 in
  let data = Array.init n (fun i -> ((i * i) + (i / 7)) mod sigma) in
  let postings = Indexing.Common.positions_by_char ~sigma data in
  List.iter
    (fun code ->
      let agree, word, oracle =
        Oracle.Stream_table.twin_decode ~code
          ~make_device:(fun () -> device ~block_bits:512 ~mem_bits:(16 * 512) ())
          postings
      in
      Alcotest.(check bool) "answers" true agree;
      Alcotest.(check bool) "reads something" true (word.Iosim.Stats.bits_read > 0);
      Alcotest.(check (list string))
        "stats fields that differ" []
        (Oracle.Stream_table.stats_mismatches ~word ~oracle))
    Cbitmap.Gap_codec.[ Gamma; Delta; Rice 3; Fibonacci ]

let test_model_sanity () =
  (* The model itself reproduces a seed-era hand-check
     (test_write_read_before_write shape). *)
  let m = Model.create ~block_bits:64 ~capacity:0 () in
  Model.write m ~pos:0 ~len:8;
  check_stats "model rmw"
    {
      Iosim.Stats.block_reads = 1;
      block_writes = 1;
      pool_hits = 0;
      seeks = 0;
      prefetches = 0;
      prefetch_hits = 0;
      bits_read = 0;
      bits_written = 8;
      faults_injected = 0;
      faults_detected = 0;
      retries = 0;
      backoff_ios = 0;
    }
    m.Model.stats

let suite =
  [
    Alcotest.test_case "lru basics" `Quick test_lru_basics;
    Alcotest.test_case "scripted trace counters (pooled)" `Quick
      test_trace_counters_pooled;
    Alcotest.test_case "scripted trace counters (no pool)" `Quick
      test_trace_counters_no_pool;
    Alcotest.test_case "scripted trace counters (no rmw)" `Quick
      test_trace_counters_no_rmw;
    Alcotest.test_case "reference model sanity" `Quick test_model_sanity;
    qcheck prop_stats_match_model;
    qcheck prop_read_region_matches_naive;
    Alcotest.test_case "lru zero capacity" `Quick test_lru_zero_capacity;
    Alcotest.test_case "lru invalidate" `Quick test_lru_invalidate;
    Alcotest.test_case "segmented eviction order" `Quick
      test_segmented_eviction_order;
    Alcotest.test_case "segmented zero capacity" `Quick
      test_segmented_zero_capacity;
    Alcotest.test_case "segmented capacity one" `Quick
      test_segmented_capacity_one;
    Alcotest.test_case "segmented invalidate" `Quick test_segmented_invalidate;
    Alcotest.test_case "segmented promotion bounded" `Quick
      test_segmented_promotion_bounded;
    Alcotest.test_case "scan resistance: segmented vs lru" `Quick
      test_scan_resistance;
    Alcotest.test_case "prefetch flags" `Quick test_prefetch_flags;
    Alcotest.test_case "store/read roundtrip" `Quick test_store_and_read;
    Alcotest.test_case "read counts blocks" `Quick test_read_counts_blocks;
    Alcotest.test_case "unaligned read spans blocks" `Quick
      test_unaligned_read_touches_two_blocks;
    Alcotest.test_case "pool absorbs repeats" `Quick test_pool_absorbs_repeats;
    Alcotest.test_case "read-modify-write accounting" `Quick
      test_write_read_before_write;
    Alcotest.test_case "write without rmw" `Quick test_write_no_rmw;
    Alcotest.test_case "alloc alignment" `Quick test_alloc_alignment;
    Alcotest.test_case "cursor sequential decode" `Quick test_cursor_sequential;
    Alcotest.test_case "decoder sequential decode" `Quick
      test_decoder_sequential;
    Alcotest.test_case "decoder = cursor (fixed-width counters)" `Quick
      test_decoder_matches_cursor_fixed_width;
    Alcotest.test_case "decoder gamma charges like cursor" `Quick
      test_decoder_gamma_charges_like_cursor;
    Alcotest.test_case "theorem 2 trace: codec rewrite stats parity" `Quick
      test_theorem2_trace_codec_parity;
    Alcotest.test_case "blocks spanned" `Quick test_blocks_spanned;
    Alcotest.test_case "stats diff" `Quick test_stats_diff;
    Alcotest.test_case "prefetch hit after a write hit" `Quick
      test_prefetch_hit_after_write_hit;
    qcheck prop_device_roundtrip;
    qcheck prop_adjacent_regions_independent;
    qcheck prop_lru_never_exceeds_capacity;
    qcheck prop_lru_matches_reference;
    qcheck prop_pool_matches_list_reference;
  ]
