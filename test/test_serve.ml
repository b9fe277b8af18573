(* PR 6: sharded serving layer.

   The core property is differential: a position-sharded router —
   whatever the shard count, including shard counts that do not divide
   n and shard counts larger than n — answers every range query with a
   posting bit-identical to the unsharded instance's, for every
   builder in the repo and in both execution modes.  Around it, unit
   tests for the pieces: stats merge/imbalance, the latency histogram,
   the open-loop schedule and the alias sampler. *)

let device () =
  Iosim.Device.create ~block_bits:1024 ~mem_bits:(64 * 1024) ()

(* The bench's 15-builder table, name for name. *)
let all_builders :
    (string
    * (Iosim.Device.t -> sigma:int -> int array -> Indexing.Instance.t))
    list =
  [
    ("btree", fun dev ~sigma data -> Baselines.Btree.instance dev ~sigma data);
    ( "btree-dynamic",
      fun dev ~sigma data -> Baselines.Btree_dynamic.instance dev ~sigma data );
    ( "bitmap",
      fun dev ~sigma data -> Baselines.Bitmap_index.instance dev ~sigma data );
    ( "bitmap-wah",
      fun dev ~sigma data -> Baselines.Wah_index.instance dev ~sigma data );
    ( "cbitmap",
      fun dev ~sigma data -> Baselines.Cbitmap_index.instance dev ~sigma data );
    ( "binned",
      fun dev ~sigma data ->
        Baselines.Binned_index.instance dev ~sigma ~w:3 data );
    ( "multires",
      fun dev ~sigma data ->
        Baselines.Multires_index.instance dev ~sigma ~w:2 data );
    ( "range-encoded",
      fun dev ~sigma data -> Baselines.Range_encoded.instance dev ~sigma data );
    ( "wavelet",
      fun dev ~sigma data -> Baselines.Wavelet.instance dev ~sigma data );
    ( "alphabet-tree",
      fun dev ~sigma data -> Secidx.Alphabet_tree.instance dev ~sigma data );
    ( "alphabet-doubling",
      fun dev ~sigma data ->
        Secidx.Alphabet_tree.instance ~schedule:`Doubling dev ~sigma data );
    ( "static",
      fun dev ~sigma data -> Secidx.Static_index.instance dev ~sigma data );
    ( "append",
      fun dev ~sigma data -> Secidx.Append_index.instance dev ~sigma data );
    ( "dynamic",
      fun dev ~sigma data -> Secidx.Dynamic_index.instance dev ~sigma data );
    ( "buffered-bitmap",
      fun dev ~sigma data -> Secidx.Buffered_bitmap.instance dev ~sigma data );
  ]

let sigma = 16

let mkdata ~seed n =
  (Workload.Gen.zipf ~seed ~n ~sigma ~theta:0.8 ()).Workload.Gen.data

(* Boundary-spanning, full, point, inverted-empty, edges — plus a
   seeded mix. *)
let query_mix ~seed =
  let module Rng = Hashing.Universal.Rng in
  let rng = Rng.create ~seed in
  Array.append
    [| (0, sigma - 1); (0, 0); (sigma - 1, sigma - 1); (5, 4);
       (3, 11); (7, 8) |]
    (Array.init 24 (fun _ ->
         let lo = Rng.below rng sigma in
         (lo, min (sigma - 1) (lo + Rng.below rng sigma))))

let shards_for build k data =
  Serve.Shard.build ~shards:k ~make_device:(fun _ -> device ())
    ~build ~sigma data

let check_router_equals_unsharded ~name inst router queries =
  let n = inst.Indexing.Instance.n in
  Array.iter
    (fun (lo, hi) ->
      let expect =
        Indexing.Answer.to_posting ~n (inst.Indexing.Instance.query ~lo ~hi)
      in
      let got = Serve.Router.query router ~lo ~hi in
      Alcotest.(check bool)
        (Printf.sprintf "%s [%d,%d] k=%d" name lo hi
           (Array.length (Serve.Router.shards router)))
        true
        (Cbitmap.Posting.equal expect got))
    queries

let test_differential_all_builders () =
  let data = mkdata ~seed:5 96 in
  let queries = query_mix ~seed:21 in
  List.iter
    (fun (name, build) ->
      let inst = build (device ()) ~sigma data in
      List.iter
        (fun k ->
          let router = Serve.Router.create (shards_for build k data) in
          check_router_equals_unsharded ~name inst router queries)
        [ 1; 2; 4; 7 ])
    all_builders

(* Shard counts beyond n leave trailing shards empty; they must
   contribute nothing and break nothing. *)
let test_empty_shards () =
  let data = mkdata ~seed:9 5 in
  let queries = query_mix ~seed:22 in
  List.iter
    (fun name ->
      let build = List.assoc name all_builders in
      let shards = shards_for build 7 data in
      Alcotest.(check int) "7 slices" 7 (Array.length shards);
      let empties =
        Array.fold_left
          (fun acc s -> if Serve.Shard.instance s = None then acc + 1 else acc)
          0 shards
      in
      Alcotest.(check int) "two empty slices" 2 empties;
      let inst = build (device ()) ~sigma data in
      check_router_equals_unsharded ~name inst
        (Serve.Router.create shards)
        queries)
    [ "static"; "btree"; "cbitmap" ]

let test_domains_mode () =
  let data = mkdata ~seed:14 120 in
  let queries = query_mix ~seed:23 in
  List.iter
    (fun name ->
      let build = List.assoc name all_builders in
      let inst = build (device ()) ~sigma data in
      List.iter
        (fun k ->
          let router =
            Serve.Router.create ~mode:Serve.Router.Domains
              (shards_for build k data)
          in
          Fun.protect
            ~finally:(fun () -> Serve.Router.shutdown router)
            (fun () ->
              Alcotest.(check int) "one domain per shard" k
                (Serve.Router.domains_used router);
              check_router_equals_unsharded ~name inst router queries))
        [ 2; 4 ])
    [ "static"; "dynamic" ]

(* A shard whose batch raises: both modes raise the first failure in
   shard order (shards 1 and 2 both fail; shard 1's error wins), the
   [Domains] workers survive it and answer the next batch, and
   [shutdown] joins cleanly. *)
let test_shard_failure_same_in_both_modes () =
  let data = mkdata ~seed:17 150 in
  let queries = query_mix ~seed:26 in
  let static = List.assoc "static" all_builders in
  let inst = static (device ()) ~sigma data in
  let n = inst.Indexing.Instance.n in
  List.iter
    (fun mode ->
      let armed = Array.make 3 false and built = ref 0 in
      let build dev ~sigma x =
        let i = !built in
        incr built;
        let inst = static dev ~sigma x in
        let batch = Option.get inst.Indexing.Instance.batch in
        {
          inst with
          Indexing.Instance.batch =
            Some
              (fun ranges ->
                if armed.(i) then Secidx_error.corrupt "shard %d: injected" i;
                batch ranges);
        }
      in
      let router = Serve.Router.create ~mode (shards_for build 3 data) in
      Fun.protect
        ~finally:(fun () -> Serve.Router.shutdown router)
        (fun () ->
          armed.(1) <- true;
          armed.(2) <- true;
          Alcotest.check_raises "first failing shard's error"
            (Secidx_error.Corrupt "shard 1: injected") (fun () ->
              ignore (Serve.Router.query_batch router queries));
          armed.(1) <- false;
          armed.(2) <- false;
          let answers = Serve.Router.query_batch router queries in
          Array.iteri
            (fun i (lo, hi) ->
              Alcotest.(check bool)
                (Printf.sprintf "answer after failure, slot %d" i)
                true
                (Cbitmap.Posting.equal answers.(i)
                   (Indexing.Answer.to_posting ~n
                      (inst.Indexing.Instance.query ~lo ~hi))))
            queries))
    [ Serve.Router.Sequential; Serve.Router.Domains ]

let test_query_batch_matches_per_query () =
  let data = mkdata ~seed:31 200 in
  let build = List.assoc "static" all_builders in
  let queries = query_mix ~seed:24 in
  let router = Serve.Router.create (shards_for build 4 data) in
  let batched = Serve.Router.query_batch router queries in
  Array.iteri
    (fun i (lo, hi) ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d" i)
        true
        (Cbitmap.Posting.equal batched.(i) (Serve.Router.query router ~lo ~hi)))
    queries

(* A one-range request is charged what the direct evaluator charges:
   a one-shard [Sequential] router's [query] moves its shard device's
   bits and block reads exactly as a warm one-range [Instance.run] on
   a twin device does, and as the index's own [query] on a third,
   query after query with the pools kept warm. *)
let test_router_one_range_is_direct () =
  let data = mkdata ~seed:33 400 in
  let build = List.assoc "static" all_builders in
  let router = Serve.Router.create (shards_for build 1 data) in
  let run_twin = build (device ()) ~sigma data in
  let query_twin = build (device ()) ~sigma data in
  let charged (inst : Indexing.Instance.t) =
    let s = Iosim.Device.stats inst.device in
    (s.Iosim.Stats.bits_read, s.Iosim.Stats.block_reads)
  in
  Array.iter
    (fun (lo, hi) ->
      ignore (Serve.Router.query router ~lo ~hi);
      ignore (Indexing.Instance.run run_twin ~pool:`Warm [| (lo, hi) |]);
      ignore (query_twin.Indexing.Instance.query ~lo ~hi);
      let shard = List.hd (Serve.Router.shard_stats router) in
      let what = Printf.sprintf "[%d,%d] bits read, block reads" lo hi in
      Alcotest.(check (pair int int)) (what ^ ": run") (charged run_twin)
        (shard.Iosim.Stats.bits_read, shard.Iosim.Stats.block_reads);
      Alcotest.(check (pair int int)) (what ^ ": query") (charged query_twin)
        (shard.Iosim.Stats.bits_read, shard.Iosim.Stats.block_reads))
    (query_mix ~seed:27)

(* Router stats at quiescence: the merged view equals the field-wise
   sum over shards, and queries did move blocks on >1 shard. *)
let test_router_shard_stats () =
  let data = mkdata ~seed:40 150 in
  let build = List.assoc "static" all_builders in
  let router = Serve.Router.create (shards_for build 3 data) in
  ignore (Serve.Router.query_batch router (query_mix ~seed:25));
  let stats = Serve.Router.shard_stats router in
  Alcotest.(check int) "one snapshot per shard" 3 (List.length stats);
  let merged = Iosim.Stats.merge stats in
  List.iter
    (fun (fname, get, _) ->
      Alcotest.(check int)
        (fname ^ " merged = sum")
        (List.fold_left (fun a s -> a + get s) 0 stats)
        (get merged))
    Iosim.Stats.fields;
  Alcotest.(check bool) "work happened" true (Iosim.Stats.ios merged > 0)

(* The router writes each global answer once from the shards' local
   compressed answers.  A string where character 14 lives only in the
   first 10 positions and 15 only in the last 10 gives ranges that hit
   one shard; wide ranges answer with complements (z > n/2) on the
   unsharded index and on the shards.  Every shard count (k > n on a
   6-position string, leaving empty shards), both modes, bit-identical
   to [Answer.to_posting] of the unsharded instance. *)
let test_router_assembly () =
  let build = List.assoc "static" all_builders in
  let queries =
    [| (0, sigma - 1); (0, 13); (1, sigma - 1); (0, 12); (14, 14); (15, 15);
       (14, 15); (0, 0); (3, 2); (2, 11) |]
  in
  let string_of n =
    let zipf = (Workload.Gen.zipf ~seed:3 ~n ~sigma:14 ~theta:0.8 ()).Workload.Gen.data in
    let edge = min 10 (n / 3) in
    Array.mapi (fun i c -> if i < edge then 14 else if i >= n - edge then 15 else c) zipf
  in
  let complement_rows = ref 0 in
  List.iter
    (fun (n, k) ->
      let data = string_of n in
      let inst = build (device ()) ~sigma data in
      Alcotest.(check bool) "complement-heavy ranges present" true
        (Array.exists
           (fun (lo, hi) ->
             Indexing.Answer.is_complement (inst.Indexing.Instance.query ~lo ~hi))
           queries);
      Array.iter
        (fun s ->
          Array.iter
            (fun a -> if Indexing.Answer.is_complement a then incr complement_rows)
            (Serve.Shard.run_batch s queries))
        (shards_for build k data);
      List.iter
        (fun mode ->
          let router = Serve.Router.create ~mode (shards_for build k data) in
          Fun.protect
            ~finally:(fun () -> Serve.Router.shutdown router)
            (fun () ->
              let batched = Serve.Router.query_batch router queries in
              Array.iteri
                (fun i (lo, hi) ->
                  let expect =
                    Indexing.Answer.to_posting ~n (inst.Indexing.Instance.query ~lo ~hi)
                  in
                  Alcotest.(check (list int))
                    (Printf.sprintf "n=%d k=%d %s [%d,%d]" n k
                       (match mode with Serve.Router.Sequential -> "seq" | Domains -> "domains")
                       lo hi)
                    (Cbitmap.Posting.to_list expect)
                    (Cbitmap.Posting.to_list batched.(i)))
                queries))
        [ Serve.Router.Sequential; Serve.Router.Domains ])
    [ (240, 1); (240, 2); (240, 3); (240, 7); (6, 9) ];
  Alcotest.(check bool) "shards answered with complements" true (!complement_rows > 0)

let test_stats_merge_unit () =
  let mk seedv =
    let s = Iosim.Stats.create () in
    List.iteri (fun i (_, _, set) -> set s (seedv + (7 * i))) Iosim.Stats.fields;
    s
  in
  let parts = [ mk 1; mk 10; mk 100 ] in
  let merged = Iosim.Stats.merge parts in
  List.iter
    (fun (name, get, _) ->
      Alcotest.(check int) name
        (List.fold_left (fun a s -> a + get s) 0 parts)
        (get merged))
    Iosim.Stats.fields;
  (* merge [] is all zeros *)
  Alcotest.(check bool) "empty merge zero" true
    (Iosim.Stats.equal (Iosim.Stats.merge []) (Iosim.Stats.create ()))

let test_stats_imbalance () =
  let with_ios r w =
    let s = Iosim.Stats.create () in
    s.Iosim.Stats.block_reads <- r;
    s.Iosim.Stats.block_writes <- w;
    s
  in
  let check msg expect l =
    Alcotest.(check (float 1e-9)) msg expect (Iosim.Stats.imbalance l)
  in
  check "empty" 1.0 [];
  check "all idle" 1.0 [ with_ios 0 0; with_ios 0 0 ];
  check "even" 1.0 [ with_ios 5 5; with_ios 10 0 ];
  check "one-sided" 2.0 [ with_ios 10 0; with_ios 0 0 ];
  check "skewed" 1.5 [ with_ios 30 0; with_ios 10 0; with_ios 20 0 ];
  (* single shard is trivially balanced whatever its load *)
  check "single shard" 1.0 [ with_ios 123 45 ];
  (* an empty (zero-count) shard drags the mean: max/mean = k *)
  check "empty shard among three" 3.0
    [ with_ios 10 0; with_ios 0 0; with_ios 0 0 ]

(* Counter-overflow edges: merge and imbalance must stay exact (no
   float detour, no wraparound) with counters near max_int. *)
let test_stats_merge_extremes () =
  (* single-shard merge is the identity on every field *)
  let one = Iosim.Stats.create () in
  List.iteri (fun i (_, _, set) -> set one (i + 1)) Iosim.Stats.fields;
  Alcotest.(check bool) "singleton merge identity" true
    (Iosim.Stats.equal (Iosim.Stats.merge [ one ]) one);
  (* two shards holding max_int/2 each sum exactly, without overflow *)
  let half = max_int / 2 in
  let big () =
    let s = Iosim.Stats.create () in
    List.iter (fun (_, _, set) -> set s half) Iosim.Stats.fields;
    s
  in
  let merged = Iosim.Stats.merge [ big (); big () ] in
  List.iter
    (fun (name, get, _) ->
      Alcotest.(check int) (name ^ " huge sum") (2 * half) (get merged))
    Iosim.Stats.fields;
  (* imbalance over huge per-shard I/O counts stays finite and exact:
     ios = block_reads + block_writes per shard must not wrap *)
  let quarter = max_int / 4 in
  let with_ios r w =
    let s = Iosim.Stats.create () in
    s.Iosim.Stats.block_reads <- r;
    s.Iosim.Stats.block_writes <- w;
    s
  in
  Alcotest.(check (float 1e-9)) "huge imbalance" 1.0
    (Iosim.Stats.imbalance
       [ with_ios quarter quarter; with_ios quarter quarter ]);
  Alcotest.(check (float 1e-6)) "huge one-sided" 2.0
    (Iosim.Stats.imbalance [ with_ios quarter quarter; with_ios 0 0 ])

let test_histogram () =
  let h = Obs.Histogram.create () in
  Alcotest.(check bool) "empty percentile NaN" true
    (Float.is_nan (Obs.Histogram.percentile h 0.5));
  for i = 1 to 1000 do
    Obs.Histogram.add h (float_of_int i *. 1e-3)
  done;
  Alcotest.(check int) "count" 1000 (Obs.Histogram.count h);
  Alcotest.(check (float 1e-9)) "max exact" 1.0
    (Obs.Histogram.max_value h);
  Alcotest.(check (float 1e-9)) "min exact" 1e-3
    (Obs.Histogram.min_value h);
  (* Bucket edges are conservative: the reported quantile bounds the
     true one from above, within one bucket's relative width. *)
  let rel = 10.0 ** (1.0 /. 25.0) in
  List.iter
    (fun q ->
      let true_q = q in
      let got = Obs.Histogram.percentile h q in
      Alcotest.(check bool)
        (Printf.sprintf "p%g above" (q *. 100.))
        true (got >= true_q *. 0.999);
      Alcotest.(check bool)
        (Printf.sprintf "p%g tight" (q *. 100.))
        true
        (got <= true_q *. rel *. 1.001))
    [ 0.5; 0.95; 0.99 ];
  (* Merge equals recording everything into one histogram. *)
  let a = Obs.Histogram.create () and b = Obs.Histogram.create () in
  let all = Obs.Histogram.create () in
  for i = 1 to 500 do
    let v = float_of_int i *. 2e-4 in
    Obs.Histogram.add (if i mod 2 = 0 then a else b) v;
    Obs.Histogram.add all v
  done;
  let m = Obs.Histogram.merge [ a; b ] in
  Alcotest.(check int) "merge count" (Obs.Histogram.count all)
    (Obs.Histogram.count m);
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-12)) "merge percentile"
        (Obs.Histogram.percentile all q)
        (Obs.Histogram.percentile m q))
    [ 0.1; 0.5; 0.9; 0.99 ]

let test_traffic_schedule () =
  let mk () =
    Workload.Traffic.make ~seed:77 ~sigma:64 ~count:5000 ~rate:1000.0 ()
  in
  let t = mk () and t' = mk () in
  Alcotest.(check bool) "deterministic" true
    (t.Workload.Traffic.arrivals = t'.Workload.Traffic.arrivals
    && t.Workload.Traffic.queries = t'.Workload.Traffic.queries);
  let arr = t.Workload.Traffic.arrivals in
  Array.iteri
    (fun i a ->
      if i > 0 then
        Alcotest.(check bool) "nondecreasing" true (a >= arr.(i - 1)))
    arr;
  Array.iter
    (fun (lo, hi) ->
      Alcotest.(check bool) "query in range" true
        (0 <= lo && lo <= hi && hi < 64))
    t.Workload.Traffic.queries;
  (* Long-run offered rate within 25% of configured. *)
  let measured = 5000.0 /. t.Workload.Traffic.duration in
  Alcotest.(check bool)
    (Printf.sprintf "rate %.0f ~ 1000" measured)
    true
    (measured > 750.0 && measured < 1250.0)

let test_alias_sampler () =
  let module Rng = Hashing.Universal.Rng in
  (* Exact on a degenerate distribution. *)
  let one = Workload.Gen.Alias.create [| 0.0; 5.0; 0.0 |] in
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 200 do
    Alcotest.(check int) "degenerate" 1 (Workload.Gen.Alias.draw one rng)
  done;
  (* Frequencies track weights on a skewed distribution. *)
  let weights = [| 8.0; 4.0; 2.0; 1.0; 1.0 |] in
  let t = Workload.Gen.Alias.create weights in
  let counts = Array.make 5 0 in
  let draws = 200_000 in
  let rng = Rng.create ~seed:4 in
  for _ = 1 to draws do
    let i = Workload.Gen.Alias.draw t rng in
    counts.(i) <- counts.(i) + 1
  done;
  let total = Array.fold_left ( +. ) 0.0 weights in
  Array.iteri
    (fun i w ->
      let expect = w /. total and got = float_of_int counts.(i) /. float_of_int draws in
      Alcotest.(check bool)
        (Printf.sprintf "weight %d: %.4f ~ %.4f" i got expect)
        true
        (Float.abs (got -. expect) < 0.01))
    weights

(* The open-loop driver against a sequential router: completes the
   schedule, records one latency per query, and its digest matches a
   2-domain run over the same schedule. *)
let test_sim_open_loop () =
  let data = mkdata ~seed:50 300 in
  let build = List.assoc "static" all_builders in
  let traffic =
    Workload.Traffic.make ~seed:51 ~sigma ~count:400 ~rate:50_000.0 ()
  in
  let run mode k =
    let router = Serve.Router.create ~mode (shards_for build k data) in
    Fun.protect
      ~finally:(fun () -> Serve.Router.shutdown router)
      (fun () -> Serve.Sim.run router traffic)
  in
  let seq = run Serve.Router.Sequential 1 in
  Alcotest.(check int) "completed" 400 seq.Serve.Sim.completed;
  Alcotest.(check int) "latency samples" 400
    (Obs.Histogram.count seq.Serve.Sim.latency);
  Alcotest.(check bool) "throughput positive" true
    (seq.Serve.Sim.throughput > 0.0);
  let dom = run Serve.Router.Domains 2 in
  Alcotest.(check int) "digest agrees across modes" seq.Serve.Sim.checksum
    dom.Serve.Sim.checksum

(* The router normalizes a batch before it scatters: each distinct
   clamped range reaches each shard once, in ascending order, and
   every slot of that range (a duplicate, or a slot that clamps to it)
   is the one posting the router assembled.  Slots that clamp to
   nothing get the empty posting and reach no shard.  Both modes. *)
let test_router_scatters_distinct_ranges () =
  let data = mkdata ~seed:33 140 in
  let static = List.assoc "static" all_builders in
  let inst = static (device ()) ~sigma data in
  let n = inst.Indexing.Instance.n in
  let batch =
    [| (3, 7); (0, sigma - 1); (3, 7); (-4, 2); (0, 2); (14, 99); (5, 4);
       (sigma, sigma + 3); (14, sigma - 1); (-1, sigma + 5); (9, 9); (3, 7) |]
  in
  let distinct =
    Array.to_list batch
    |> List.filter_map (fun (lo, hi) -> Indexing.Common.clamp_range ~sigma ~lo ~hi)
    |> List.sort_uniq compare
  in
  List.iter
    (fun mode ->
      let k = 3 in
      let received = Array.make k [] and built = ref 0 in
      let build dev ~sigma x =
        let i = !built in
        incr built;
        let inst = static dev ~sigma x in
        let batch = Option.get inst.Indexing.Instance.batch in
        {
          inst with
          Indexing.Instance.batch =
            Some
              (fun ranges ->
                received.(i) <- received.(i) @ Array.to_list ranges;
                batch ranges);
        }
      in
      let router = Serve.Router.create ~mode (shards_for build k data) in
      Fun.protect
        ~finally:(fun () -> Serve.Router.shutdown router)
        (fun () ->
          let answers = Serve.Router.query_batch router batch in
          Array.iteri
            (fun i r ->
              Alcotest.(check (list (pair int int)))
                (Printf.sprintf "shard %d gets each distinct range once" i)
                distinct r)
            received;
          Array.iteri
            (fun j (lo, hi) ->
              Alcotest.(check bool)
                (Printf.sprintf "slot %d = per-query answer" j)
                true
                (Cbitmap.Posting.equal answers.(j)
                   (Indexing.Answer.to_posting ~n
                      (inst.Indexing.Instance.query ~lo ~hi)));
              Array.iteri
                (fun j' (lo', hi') ->
                  let c = Indexing.Common.clamp_range ~sigma in
                  if c ~lo ~hi = c ~lo:lo' ~hi:hi' then
                    Alcotest.(check bool)
                      (Printf.sprintf "slots %d and %d share one posting" j j')
                      true
                      (answers.(j) == answers.(j')))
                batch)
            batch))
    [ Serve.Router.Sequential; Serve.Router.Domains ]

let suite =
  [
    Alcotest.test_case "differential: 15 builders x shards {1,2,4,7}" `Quick
      test_differential_all_builders;
    Alcotest.test_case "empty shards (k > n)" `Quick test_empty_shards;
    Alcotest.test_case "domains mode differential" `Quick test_domains_mode;
    Alcotest.test_case "shard failure: same error in both modes" `Quick
      test_shard_failure_same_in_both_modes;
    Alcotest.test_case "router batch = per-query" `Quick
      test_query_batch_matches_per_query;
    Alcotest.test_case "router one-range query = direct run" `Quick
      test_router_one_range_is_direct;
    Alcotest.test_case "router shard stats merge" `Quick
      test_router_shard_stats;
    Alcotest.test_case "stats merge = sum" `Quick test_stats_merge_unit;
    Alcotest.test_case "stats imbalance" `Quick test_stats_imbalance;
    Alcotest.test_case "stats merge extremes" `Quick
      test_stats_merge_extremes;
    Alcotest.test_case "latency histogram" `Quick test_histogram;
    Alcotest.test_case "traffic schedule" `Quick test_traffic_schedule;
    Alcotest.test_case "alias sampler" `Quick test_alias_sampler;
    Alcotest.test_case "open-loop sim" `Quick test_sim_open_loop;
    Alcotest.test_case "router answer assembly: k in {1,2,3,7} and k > n"
      `Quick test_router_assembly;
    Alcotest.test_case "router scatters each distinct range once" `Quick
      test_router_scatters_distinct_ranges;
  ]
