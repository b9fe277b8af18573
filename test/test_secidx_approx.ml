(* Tests for the approximate index of §3 (Theorem 3). *)

let qcheck = QCheck_alcotest.to_alcotest

let device ?(block_bits = 256) ?(mem_blocks = 256) () =
  Iosim.Device.create ~block_bits ~mem_bits:(mem_blocks * block_bits) ()

let gen_of_array ~sigma data = { Workload.Gen.sigma; data }

let input_gen =
  QCheck.make
    ~print:(fun (sigma, data, lo, hi) ->
      Printf.sprintf "sigma=%d n=%d lo=%d hi=%d" sigma (Array.length data) lo
        hi)
    QCheck.Gen.(
      int_range 1 24 >>= fun sigma ->
      int_range 1 300 >>= fun n ->
      array_size (return n) (int_range 0 (sigma - 1)) >>= fun data ->
      int_range 0 (sigma - 1) >>= fun a ->
      int_range 0 (sigma - 1) >>= fun b ->
      return (sigma, data, min a b, max a b))

(* The defining property: the approximate answer is always a superset
   of the exact answer — no false negatives, for any epsilon. *)
let prop_superset =
  QCheck.Test.make ~count:100 ~name:"approximate answer is a superset"
    (QCheck.pair input_gen (QCheck.int_range 1 10))
    (fun ((sigma, data, lo, hi), inv_eps) ->
      let dev = device () in
      let t = Secidx.Approx_index.build dev ~sigma data in
      let epsilon = 1.0 /. float_of_int inv_eps in
      let answer = Secidx.Approx_index.query t ~epsilon ~lo ~hi in
      let naive =
        Workload.Queries.naive_answer (gen_of_array ~sigma data)
          { Workload.Queries.lo; hi }
      in
      let n = Array.length data in
      let cands = Secidx.Approx_index.candidates answer ~n in
      Cbitmap.Posting.subset naive cands
      && Cbitmap.Posting.fold
           (fun acc i -> acc && Secidx.Approx_index.mem answer i)
           true naive)

(* mem and candidates agree. *)
let prop_mem_matches_candidates =
  QCheck.Test.make ~count:75 ~name:"mem agrees with candidates"
    (QCheck.pair input_gen (QCheck.int_range 2 6))
    (fun ((sigma, data, lo, hi), inv_eps) ->
      let dev = device () in
      let t = Secidx.Approx_index.build dev ~sigma data in
      let epsilon = 1.0 /. float_of_int inv_eps in
      let answer = Secidx.Approx_index.query t ~epsilon ~lo ~hi in
      let n = Array.length data in
      let cands = Secidx.Approx_index.candidates answer ~n in
      let ok = ref true in
      for i = 0 to n - 1 do
        if Secidx.Approx_index.mem answer i <> Cbitmap.Posting.mem cands i
        then ok := false
      done;
      !ok)

let test_false_positive_rate () =
  (* Statistical check: measured FP rate should be at most a small
     multiple of epsilon (expectation is <= epsilon per element). *)
  (* n = 2^16 gives k = 4 and a largest hashed universe of 2^16, so
     moderate z/epsilon stays on the hashed path. *)
  let n = 65536 and sigma = 256 in
  let g = Workload.Gen.uniform ~seed:11 ~n ~sigma in
  let dev = device ~block_bits:1024 () in
  let t = Secidx.Approx_index.build ~seed:7 dev ~sigma g.Workload.Gen.data in
  let epsilon = 1.0 /. 16.0 in
  let check lo hi =
    match Secidx.Approx_index.query t ~epsilon ~lo ~hi with
    | Secidx.Approx_index.Exact _ -> ()
    | Secidx.Approx_index.Hashed _ as answer ->
        let naive =
          Workload.Queries.naive_answer g { Workload.Queries.lo; hi }
        in
        let cands = Secidx.Approx_index.candidates answer ~n in
        let fp =
          Cbitmap.Posting.cardinal cands - Cbitmap.Posting.cardinal naive
        in
        let outside = n - Cbitmap.Posting.cardinal naive in
        let rate = float_of_int fp /. float_of_int (max 1 outside) in
        if rate > 6.0 *. epsilon then
          Alcotest.failf "fp rate %.4f >> epsilon %.4f (lo=%d hi=%d)" rate
            epsilon lo hi
  in
  check 0 0;
  check 3 5;
  check 17 20;
  check 100 101

let test_bits_read_scale_with_epsilon () =
  (* Savings appear when z·(1/ε) fits a hashed universe much smaller
     than n: each element then costs O(lg(1/ε)) bits instead of
     O(lg(n/z)).  Query two rare characters (z ≈ 32 over n = 2^16):
     ε = 1/4 gives j = 3 (8-bit universe) — far fewer bits than the
     exact gaps of ~2·lg(n/z) bits each. *)
  let n = 65536 and sigma = 4096 in
  let g = Workload.Gen.uniform ~seed:12 ~n ~sigma in
  let dev = device ~block_bits:1024 ~mem_blocks:1024 () in
  let t = Secidx.Approx_index.build ~seed:3 dev ~sigma g.Workload.Gen.data in
  let bits_for_eps epsilon expected_j =
    Iosim.Device.clear_pool dev;
    Iosim.Device.reset_stats dev;
    (match Secidx.Approx_index.query t ~epsilon ~lo:40 ~hi:41 with
    | Secidx.Approx_index.Hashed { j; _ } ->
        Alcotest.(check int) "chosen j" expected_j j
    | Secidx.Approx_index.Exact _ -> Alcotest.fail "expected hashed answer");
    (Iosim.Device.stats dev).Iosim.Stats.bits_read
  in
  let exact_bits =
    Iosim.Device.clear_pool dev;
    Iosim.Device.reset_stats dev;
    ignore (Secidx.Static_index.query (Secidx.Approx_index.base t) ~lo:40 ~hi:41);
    (Iosim.Device.stats dev).Iosim.Stats.bits_read
  in
  let b_coarse = bits_for_eps 0.25 3 in
  if not (b_coarse < exact_bits) then
    Alcotest.failf "coarse (%d bits) not below exact (%d bits)" b_coarse
      exact_bits

let test_exact_fallback () =
  (* Tiny epsilon forces j > k, i.e. an exact answer. *)
  let n = 1024 and sigma = 16 in
  let g = Workload.Gen.uniform ~seed:13 ~n ~sigma in
  let dev = device () in
  let t = Secidx.Approx_index.build dev ~sigma g.Workload.Gen.data in
  match Secidx.Approx_index.query t ~epsilon:1e-12 ~lo:2 ~hi:9 with
  | Secidx.Approx_index.Exact a ->
      let naive =
        Workload.Queries.naive_answer g { Workload.Queries.lo = 2; hi = 9 }
      in
      Alcotest.(check bool) "exact correct" true
        (Cbitmap.Posting.equal (Indexing.Answer.to_posting ~n a) naive)
  | Secidx.Approx_index.Hashed _ -> Alcotest.fail "expected exact fallback"

let test_k_value () =
  let n = 65536 and sigma = 8 in
  let g = Workload.Gen.uniform ~seed:14 ~n ~sigma in
  let dev = device () in
  let t = Secidx.Approx_index.build dev ~sigma g.Workload.Gen.data in
  (* floor(lg lg 65536) = floor(lg 16) = 4 *)
  Alcotest.(check int) "k" 4 (Secidx.Approx_index.k t)

let test_intersection_of_approx () =
  (* §3: intersect several approximate results by intersecting hashed
     sets via membership — emulate the d-dimensional use. *)
  let n = 4096 and sigma = 64 in
  let g1 = Workload.Gen.uniform ~seed:15 ~n ~sigma in
  let g2 = Workload.Gen.uniform ~seed:16 ~n ~sigma in
  let t1 = Secidx.Approx_index.build (device ()) ~sigma g1.Workload.Gen.data in
  let t2 = Secidx.Approx_index.build ~seed:99 (device ()) ~sigma g2.Workload.Gen.data in
  let a1 = Secidx.Approx_index.query t1 ~epsilon:0.1 ~lo:0 ~hi:7 in
  let a2 = Secidx.Approx_index.query t2 ~epsilon:0.1 ~lo:8 ~hi:15 in
  let naive1 = Workload.Queries.naive_answer g1 { Workload.Queries.lo = 0; hi = 7 } in
  let naive2 = Workload.Queries.naive_answer g2 { Workload.Queries.lo = 8; hi = 15 } in
  let exact_inter = Cbitmap.Posting.inter naive1 naive2 in
  let approx_inter =
    Cbitmap.Posting.fold
      (fun acc i ->
        if Secidx.Approx_index.mem a2 i then i :: acc else acc)
      []
      (Secidx.Approx_index.candidates a1 ~n)
  in
  let approx_inter = Cbitmap.Posting.of_list approx_inter in
  Alcotest.(check bool) "intersection superset" true
    (Cbitmap.Posting.subset exact_inter approx_inter);
  (* FP of the intersection is quadratically small; allow slack. *)
  let extra =
    Cbitmap.Posting.cardinal approx_inter - Cbitmap.Posting.cardinal exact_inter
  in
  if extra > n / 20 then Alcotest.failf "too many intersection FPs: %d" extra

let test_hashed_space_overhead () =
  (* The hashed sets must cost at most a constant factor of the base:
     sum_j lg(2^2^j choose |I|) = O(lg (n choose |I|)). *)
  let n = 32768 and sigma = 128 in
  let g = Workload.Gen.zipf ~seed:17 ~n ~sigma ~theta:1.0 () in
  let dev = device ~block_bits:1024 () in
  let t = Secidx.Approx_index.build dev ~sigma g.Workload.Gen.data in
  let base = Secidx.Static_index.size_bits (Secidx.Approx_index.base t) in
  let hashed = Secidx.Approx_index.hashed_bits t in
  if hashed > 3 * base then
    Alcotest.failf "hashed sets too large: %d vs base %d" hashed base

(* --- the candidate probe --- *)

(* Run [f] cold and return its result with the counters it charged. *)
let cold dev f =
  Iosim.Device.clear_pool dev;
  Iosim.Device.reset_stats dev;
  let r = f () in
  (r, Iosim.Stats.snapshot (Iosim.Device.stats dev))

(* What the planner's prefilter kept before the probe: every range's
   approximate answer read in order, then hashed membership. *)
let reference_keep t ~epsilon ranges cand =
  let answers =
    List.map
      (fun (lo, hi) -> Secidx.Approx_index.query t ~epsilon ~lo ~hi)
      ranges
  in
  Cbitmap.Posting.filter
    (fun row -> List.exists (fun a -> Secidx.Approx_index.mem a row) answers)
    cand

let probe_keep t ~epsilon ranges cand =
  Cbitmap.Posting.union_many
    (List.map
       (fun (lo, hi) -> Secidx.Approx_index.probe t ~epsilon ~lo ~hi cand)
       ranges)

(* The probe keeps exactly the reference's rows and charges exactly
   its counters, every [Stats] field. *)
let probe_parity dev t ~epsilon ranges cand =
  let want, want_stats =
    cold dev (fun () -> reference_keep t ~epsilon ranges cand)
  in
  let got, got_stats =
    cold dev (fun () -> probe_keep t ~epsilon ranges cand)
  in
  (Cbitmap.Posting.equal got want
  || QCheck.Test.fail_reportf "kept %d rows, reference %d"
       (Cbitmap.Posting.cardinal got) (Cbitmap.Posting.cardinal want))
  && (Iosim.Stats.equal got_stats want_stats
     || QCheck.Test.fail_reportf "stats differ:@ %a@ vs reference@ %a"
          Iosim.Stats.pp got_stats Iosim.Stats.pp want_stats)

(* Skewed columns (low values common, high ones often absent, so
   empty ranges occur), 1-3 ranges, ε from the planner's grid. *)
let probe_gen =
  QCheck.make
    ~print:(fun (sigma, data, ranges, epsilon, cand) ->
      Printf.sprintf "sigma=%d n=%d eps=%g ranges=[%s] cand=%d" sigma
        (Array.length data) epsilon
        (String.concat " "
           (List.map (fun (lo, hi) -> Printf.sprintf "%d-%d" lo hi) ranges))
        (List.length cand))
    QCheck.Gen.(
      int_range 1 40 >>= fun sigma ->
      int_range 1 600 >>= fun n ->
      array_size (return n)
        (map (fun u -> u * u / sigma) (int_range 0 (sigma - 1)))
      >>= fun data ->
      list_size (int_range 1 3)
        (map2
           (fun a b -> (min a b, max a b))
           (int_bound (sigma - 1))
           (int_bound (sigma - 1)))
      >>= fun ranges ->
      oneofl [ 0.5; 0.1; 0.01 ] >>= fun epsilon ->
      oneof
        [
          list_size (int_bound n) (int_bound (n - 1));
          return (List.init n Fun.id);
        ]
      >>= fun cand -> return (sigma, data, ranges, epsilon, cand))

let prop_probe_parity =
  QCheck.Test.make ~count:200 ~long_factor:10
    ~name:"probe = query + mem: rows and every counter" probe_gen
    (fun (sigma, data, ranges, epsilon, cand) ->
      let dev = device ~mem_blocks:8 () in
      let t = Secidx.Approx_index.build dev ~sigma data in
      probe_parity dev t ~epsilon ranges (Cbitmap.Posting.of_list cand))

(* Each read path on purpose: a range with no rows, the exact
   fallback (j > k), the hashed path, and two ranges mixing them. *)
let test_probe_paths () =
  let n = 2000 and sigma = 64 in
  let data =
    Array.init n (fun i -> if i mod 97 = 0 then 63 else i * 7 mod 60)
  in
  let dev = device ~mem_blocks:8 () in
  let t = Secidx.Approx_index.build dev ~sigma data in
  let cand = Cbitmap.Posting.of_sorted_array (Array.init n Fun.id) in
  let path ~epsilon ~lo ~hi =
    match Secidx.Approx_index.query t ~epsilon ~lo ~hi with
    | Secidx.Approx_index.Exact a when Indexing.Answer.cardinal ~n a = 0 ->
        "empty"
    | Secidx.Approx_index.Exact _ -> "exact"
    | Secidx.Approx_index.Hashed _ -> "hashed"
  in
  List.iter
    (fun (name, epsilon, ranges, expect) ->
      List.iter2
        (fun (lo, hi) e ->
          Alcotest.(check string) (name ^ " path") e (path ~epsilon ~lo ~hi))
        ranges expect;
      Alcotest.(check bool) name true (probe_parity dev t ~epsilon ranges cand))
    [
      ("z = 0", 0.1, [ (61, 62) ], [ "empty" ]);
      ("j > k", 0.01, [ (0, 40) ], [ "exact" ]);
      ("hashed", 0.5, [ (5, 5) ], [ "hashed" ]);
      ( "multi-range",
        0.5,
        [ (5, 5); (61, 62); (20, 21); (63, 63) ],
        [ "hashed"; "empty"; "hashed"; "hashed" ] );
      ("with fallback", 0.01, [ (0, 40); (61, 62) ], [ "exact"; "empty" ]);
    ]

(* A transient read fault on any block a probe reads raises [IO_error]
   out of it, and the next probe, over another range at the same hash
   level, keeps exactly the reference's rows: nothing the faulted probe
   decoded survives into it.  The faulted range spans several extents,
   so a fault can land after some of its hashes were decoded. *)
let test_probe_fault_hygiene () =
  let n = 2000 and sigma = 512 and epsilon = 0.5 in
  let data = Array.init n (fun i -> (i * 37) mod sigma) in
  let dev = device ~mem_blocks:8 () in
  let t = Secidx.Approx_index.build dev ~sigma data in
  let cand = Cbitmap.Posting.of_sorted_array (Array.init n Fun.id) in
  let level lo hi =
    match Secidx.Approx_index.query t ~epsilon ~lo ~hi with
    | Secidx.Approx_index.Hashed { j; _ } -> j
    | Secidx.Approx_index.Exact _ -> Alcotest.fail "expected a hashed answer"
  in
  Alcotest.(check int) "same hash level" (level 13 26) (level 300 313);
  let want = reference_keep t ~epsilon [ (300, 313) ] cand in
  let raised = ref 0 in
  for block = 0 to Iosim.Device.used_bits dev / Iosim.Device.block_bits dev do
    Iosim.Device.clear_pool dev;
    let plan = Iosim.Fault.create () in
    Iosim.Device.set_fault dev plan;
    Iosim.Fault.arm_transient_read plan ~block ~failures:1;
    let failed =
      match Secidx.Approx_index.probe t ~epsilon ~lo:13 ~hi:26 cand with
      | _ -> false
      | exception Secidx_error.IO_error _ -> true
    in
    Iosim.Device.clear_fault dev;
    if failed then incr raised;
    Alcotest.(check bool)
      (Printf.sprintf "block %d: a consumed fault raises" block)
      (Iosim.Fault.pending_transients plan = 0)
      failed;
    let got = Secidx.Approx_index.probe t ~epsilon ~lo:300 ~hi:313 cand in
    if not (Cbitmap.Posting.equal got want) then
      Alcotest.failf "block %d: the probe after the fault is wrong" block
  done;
  Alcotest.(check bool) "faults landed" true (!raised > 0)

let suite =
  [
    qcheck prop_superset;
    qcheck prop_mem_matches_candidates;
    qcheck prop_probe_parity;
    Alcotest.test_case "probe read paths" `Quick test_probe_paths;
    Alcotest.test_case "probe after a read fault" `Quick
      test_probe_fault_hygiene;
    Alcotest.test_case "false positive rate" `Quick test_false_positive_rate;
    Alcotest.test_case "bits read scale with epsilon" `Quick
      test_bits_read_scale_with_epsilon;
    Alcotest.test_case "exact fallback for tiny epsilon" `Quick
      test_exact_fallback;
    Alcotest.test_case "k = floor(lg lg n)" `Quick test_k_value;
    Alcotest.test_case "intersection of approximate answers" `Quick
      test_intersection_of_approx;
    Alcotest.test_case "hashed space overhead bounded" `Quick
      test_hashed_space_overhead;
  ]
