(* Differential tests for batched query execution (PR 5, registry-
   driven since PR 7): for EVERY builder in the shared table
   ({!Registry.all}) plus one forced generic-fallback index,
   a cold [Instance.run] over randomized batches — overlapping,
   duplicate, empty, inverted, out-of-range and full-range intervals —
   must return answers bit-identical (same constructor, same posting)
   to looping the index's own [query].  Because the suite is generated
   from the registry, registering a new builder without batch coverage
   is impossible: it lands here automatically, and CI runs this
   suite. *)

let device () = Iosim.Device.create ~block_bits:256 ~mem_bits:(64 * 256) ()

let builders =
  List.map
    (fun b -> (b.Registry.b_name, b.Registry.b_build))
    Registry.all
  @ [
      (* No batch hook: exercises the generic planner fallback. *)
      ( "binned-fallback",
        fun dev ~sigma data ->
          Baselines.Binned_index.instance dev ~sigma ~w:3 data );
    ]

let answers_identical a b =
  match (a, b) with
  | Indexing.Answer.Direct p, Indexing.Answer.Direct q
  | Indexing.Answer.Complement p, Indexing.Answer.Complement q ->
      Cbitmap.Posting.equal p q
  | _ -> false

let check_batch name inst ranges =
  let expect =
    Array.map (fun (lo, hi) -> inst.Indexing.Instance.query ~lo ~hi) ranges
  in
  let got, _stats = Indexing.Instance.run inst ~pool:`Cold ranges in
  Alcotest.(check int)
    (Printf.sprintf "%s: answer count" name)
    (Array.length expect) (Array.length got);
  Array.iteri
    (fun i e ->
      let lo, hi = ranges.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: batch slot %d = query [%d,%d]" name i lo hi)
        true
        (answers_identical e got.(i)))
    expect

(* Hand-picked edges: full alphabet, points, clamping on both sides,
   inverted (empty), fully out of range, duplicates. *)
let edge_batch sigma =
  [|
    (0, sigma - 1);
    (3, 3);
    (-5, 2);
    (10, 5);
    (sigma, sigma + 5);
    (3, 3);
    (sigma - 1, sigma - 1);
    (-1, sigma);
    (0, sigma - 1);
  |]

(* Deterministic batch generator biased toward the planner's work:
   repeats of earlier ranges, heavy overlap, occasional junk. *)
let random_batch ~seed ~sigma ~k =
  let state = ref (((seed * 69069) + 1) land 0x3FFFFFFF) in
  let next m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  let ranges = Array.make k (0, 0) in
  for i = 0 to k - 1 do
    ranges.(i) <-
      (if i > 0 && next 4 = 0 then ranges.(next i) (* duplicate *)
       else
         match next 8 with
         | 0 -> (next sigma, -1 - next 3) (* inverted: empty *)
         | 1 -> (sigma + next 4, sigma + 4 + next 4) (* out of range *)
         | 2 -> (-(1 + next 3), next sigma) (* clamp low *)
         | _ ->
             let lo = next sigma in
             (lo, min (sigma - 1) (lo + next 8)))
  done;
  ranges

let test_one (name, build) () =
  let sigma = 16 in
  let g = Workload.Gen.zipf ~seed:11 ~n:1024 ~sigma ~theta:1.0 () in
  let inst = build (device ()) ~sigma g.Workload.Gen.data in
  check_batch name inst [||];
  check_batch name inst (edge_batch sigma);
  List.iter
    (fun seed ->
      List.iter
        (fun k -> check_batch name inst (random_batch ~seed ~sigma ~k))
        [ 1; 7; 33 ])
    [ 0; 1; 2; 3 ]

(* Charges pinned for every builder: the sum of every [Iosim.Stats]
   field over [edge_batch] run range by range through a cold one-range
   [Instance.run], and the stats of one cold [Instance.run] over
   [random_batch ~seed:1].
   The rows after the builders' are indexes whose stored bitmaps have
   seen updates (append chains, the append buffer, buffered-bitmap
   updates), so the charges of those read paths are pinned too.  A
   change that moves any figure changes what a query costs.
   [next m] reduces the LCG state shifted right by [shift] modulo [m]:
   the state's low bits cycle with period 16, so with [shift = 0] any
   16 consecutive draws below 16 are distinct. *)
let churned ?(shift = 0) name instance_of =
  ( name,
    fun dev ~sigma data ->
      let state = ref 7 in
      let next m =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        (!state lsr shift) mod m
      in
      instance_of dev ~sigma data next )

let updated_builders =
  let append_instance ~appends ~buffered dev ~sigma data next =
    let t = Secidx.Append_index.build ~buffered dev ~sigma data in
    for _ = 1 to appends do
      Secidx.Append_index.append t (next sigma)
    done;
    Secidx.Append_index.instance_of t
  in
  [
    churned "append+appends" (append_instance ~appends:303 ~buffered:false);
    churned "append-buffered+appends"
      (append_instance ~appends:303 ~buffered:true);
    (* Characters from the state's high bits, so a buffered flush holds
       repeated characters and adds each one's count once; 1500 appends
       to 1024 positions also rebuild the index once and flush after
       the rebuild. *)
    churned ~shift:16 "append-buffered+repeats"
      (append_instance ~appends:1500 ~buffered:true);
    churned "dynamic+updates" (fun dev ~sigma data next ->
        let t = Secidx.Dynamic_index.build dev ~sigma data in
        for i = 1 to 60 do
          let pos = next (Secidx.Dynamic_index.length t) in
          match i mod 3 with
          | 0 -> Secidx.Dynamic_index.delete t ~pos
          | 1 -> Secidx.Dynamic_index.change t ~pos (next sigma)
          | _ -> Secidx.Dynamic_index.append t (next sigma)
        done;
        Secidx.Dynamic_index.instance_of t);
  ]

let stats_row s =
  Array.of_list (List.map (fun (_, get, _) -> get s) Iosim.Stats.fields)

let charges build =
  let sigma = 16 in
  let g = Workload.Gen.zipf ~seed:11 ~n:1024 ~sigma ~theta:1.0 () in
  let inst = build (device ()) ~sigma g.Workload.Gen.data in
  let cold =
    Iosim.Stats.merge
      (Array.to_list
         (Array.map
            (fun r -> snd (Indexing.Instance.run inst ~pool:`Cold [| r |]))
            (edge_batch sigma)))
  in
  let _, batch =
    Indexing.Instance.run inst ~pool:`Cold (random_batch ~seed:1 ~sigma ~k:33)
  in
  (stats_row cold, stats_row batch)

let golden_fields =
  [ "block_reads"; "block_writes"; "pool_hits"; "seeks"; "prefetches";
    "prefetch_hits"; "bits_read"; "bits_written"; "faults_injected";
    "faults_detected"; "retries"; "backoff_ios" ]

(* One row per builder: (name, cold loop, batch), columns as in
   [golden_fields]. *)
let golden =
  [
    ("btree",
     [| 248; 0; 3866; 28; 0; 0; 58470; 0; 0; 0; 0; 0 |],
     [| 60; 0; 926; 9; 0; 0; 14150; 0; 0; 0; 0; 0 |]);
    ("btree-dynamic",
     [| 637; 0; 5308; 617; 0; 0; 96900; 0; 0; 0; 0; 0 |],
     [| 154; 0; 1483; 149; 0; 0; 27072; 0; 0; 0; 0; 0 |]);
    ("bitmap",
     [| 216; 0; 1512; 54; 0; 0; 55296; 0; 0; 0; 0; 0 |],
     [| 48; 0; 400; 12; 0; 0; 14336; 0; 0; 0; 0; 0 |]);
    ("bitmap-wah",
     [| 223; 0; 1314; 19; 0; 0; 49184; 0; 0; 0; 0; 0 |],
     [| 48; 0; 331; 5; 48; 48; 10592; 0; 0; 0; 0; 0 |]);
    ("bitmap-roaring",
     [| 113; 0; 2450; 11; 0; 0; 25852; 0; 0; 0; 0; 0 |],
     [| 25; 0; 547; 5; 23; 23; 5806; 0; 0; 0; 0; 0 |]);
    ("cbitmap",
     [| 98; 0; 3852; 11; 0; 0; 22207; 0; 0; 0; 0; 0 |],
     [| 24; 0; 906; 5; 22; 22; 5004; 0; 0; 0; 0; 0 |]);
    ("binned",
     [| 78; 0; 3786; 19; 0; 0; 15799; 0; 0; 0; 0; 0 |],
     [| 28; 0; 946; 10; 0; 0; 4981; 0; 0; 0; 0; 0 |]);
    ("multires",
     [| 35; 0; 3758; 13; 0; 0; 6131; 0; 0; 0; 0; 0 |],
     [| 17; 0; 942; 5; 0; 0; 3723; 0; 0; 0; 0; 0 |]);
    ("range-encoded",
     [| 40; 0; 280; 28; 0; 0; 10240; 0; 0; 0; 0; 0 |],
     [| 24; 0; 200; 18; 0; 0; 7168; 0; 0; 0; 0; 0 |]);
    ("wavelet",
     [| 41; 0; 2496; 36; 0; 0; 2537; 0; 0; 0; 0; 0 |],
     [| 11; 0; 2280; 9; 0; 0; 2291; 0; 0; 0; 0; 0 |]);
    ("alphabet-tree",
     [| 27; 0; 702; 17; 0; 0; 3147; 0; 0; 0; 0; 0 |],
     [| 18; 0; 893; 6; 15; 15; 3439; 0; 0; 0; 0; 0 |]);
    ("alphabet-doubling",
     [| 27; 0; 706; 15; 0; 0; 3515; 0; 0; 0; 0; 0 |],
     [| 21; 0; 899; 7; 18; 18; 3961; 0; 0; 0; 0; 0 |]);
    ("static",
     [| 50; 0; 822; 34; 0; 0; 5199; 0; 0; 0; 0; 0 |],
     [| 54; 0; 1167; 34; 26; 26; 7619; 0; 0; 0; 0; 0 |]);
    ("append",
     [| 50; 0; 872; 30; 0; 0; 6871; 0; 0; 0; 0; 0 |],
     [| 48; 0; 1409; 30; 26; 26; 10301; 0; 0; 0; 0; 0 |]);
    ("dynamic",
     [| 119; 0; 67; 67; 0; 0; 6804; 0; 0; 0; 0; 0 |],
     [| 117; 0; 179; 53; 0; 0; 6128; 0; 0; 0; 0; 0 |]);
    ("buffered-bitmap",
     [| 242; 0; 0; 69; 0; 0; 22689; 0; 0; 0; 0; 0 |],
     [| 54; 0; 11; 17; 0; 0; 5691; 0; 0; 0; 0; 0 |]);
    ("wal",
     [| 98; 0; 3852; 11; 0; 0; 22207; 0; 0; 0; 0; 0 |],
     [| 24; 0; 961; 5; 0; 0; 5571; 0; 0; 0; 0; 0 |]);
    ("binned-fallback",
     [| 78; 0; 3786; 19; 0; 0; 15799; 0; 0; 0; 0; 0 |],
     [| 28; 0; 946; 10; 0; 0; 4981; 0; 0; 0; 0; 0 |]);
    ("append+appends",
     [| 58; 0; 1035; 39; 0; 0; 8396; 0; 0; 0; 0; 0 |],
     [| 61; 0; 1711; 43; 39; 39; 12545; 0; 0; 0; 0; 0 |]);
    ("append-buffered+appends",
     [| 58; 0; 1034; 39; 0; 0; 8389; 0; 0; 0; 0; 0 |],
     [| 61; 0; 1707; 43; 39; 39; 12521; 0; 0; 0; 0; 0 |]);
    ("append-buffered+repeats",
     [| 75; 0; 1515; 43; 0; 0; 11916; 0; 0; 0; 0; 0 |],
     [| 92; 0; 2707; 54; 64; 64; 19618; 0; 0; 0; 0; 0 |]);
    ("dynamic+updates",
     [| 119; 0; 67; 67; 0; 0; 7059; 0; 0; 0; 0; 0 |],
     [| 117; 0; 179; 53; 0; 0; 6209; 0; 0; 0; 0; 0 |]);
  ]

let test_golden_charges () =
  let fields = List.map (fun (f, _, _) -> f) Iosim.Stats.fields in
  Alcotest.(check (list string)) "columns" golden_fields fields;
  let names = List.map (fun (n, _, _) -> n) golden in
  Alcotest.(check (list string))
    "one row per builder"
    (List.map fst (builders @ updated_builders))
    names;
  List.iter
    (fun (name, build) ->
      let cold, batch = charges build in
      let _, cold', batch' = List.find (fun (n, _, _) -> n = name) golden in
      List.iteri
        (fun i f ->
          Alcotest.(check int)
            (Printf.sprintf "%s: cold %s" name f)
            cold'.(i) cold.(i);
          Alcotest.(check int)
            (Printf.sprintf "%s: batch %s" name f)
            batch'.(i) batch.(i))
        fields)
    (builders @ updated_builders)

(* Build and update charges pinned for every registry builder and the
   churned indexes: the device's allocated bits and the instance's
   [size_bits] after the build (after the appends or updates for the
   churned rows), and the device's [block_reads], [block_writes] and
   [bits_written] at that point, before any query.  A moved extent, a
   changed layout or a changed count update moves a figure here. *)
let build_row build =
  let sigma = 16 in
  let g = Workload.Gen.zipf ~seed:11 ~n:1024 ~sigma ~theta:1.0 () in
  let inst = build (device ()) ~sigma g.Workload.Gen.data in
  let dev = inst.Indexing.Instance.device in
  let s = Iosim.Device.stats dev in
  [| Iosim.Device.used_bits dev; inst.Indexing.Instance.size_bits;
     s.Iosim.Stats.block_reads; s.Iosim.Stats.block_writes;
     s.Iosim.Stats.bits_written |]

let build_builders =
  List.map (fun b -> (b.Registry.b_name, b.Registry.b_build)) Registry.all
  @ updated_builders

(* One row per builder: (name, [| used_bits; size_bits; block_reads;
   block_writes; bits_written |]). *)
let build_golden =
  [
    ("btree", [| 26208; 19968; 103; 103; 25366 |]);
    ("btree-dynamic", [| 94080; 71680; 397; 368; 963884 |]);
    ("bitmap", [| 20304; 16384; 80; 80; 17664 |]);
    ("bitmap-wah", [| 17552; 14400; 69; 69; 15680 |]);
    ("bitmap-roaring", [| 7512; 7272; 30; 30; 7432 |]);
    ("cbitmap", [| 6522; 6282; 26; 26; 6442 |]);
    ("binned", [| 11386; 10692; 45; 45; 11012 |]);
    ("multires", [| 19792; 18118; 78; 78; 18918 |]);
    ("range-encoded", [| 20304; 16384; 80; 80; 17664 |]);
    ("wavelet", [| 4096; 4096; 16; 16; 4096 |]);
    ("alphabet-tree", [| 20235; 18305; 80; 80; 19185 |]);
    ("alphabet-doubling", [| 15115; 13393; 60; 60; 14113 |]);
    ("static", [| 24464; 20652; 96; 96; 22725 |]);
    ("append", [| 19801; 17658; 78; 78; 18458 |]);
    ("dynamic", [| 86640; 67872; 301; 301; 30846 |]);
    ("buffered-bitmap", [| 21792; 17152; 77; 77; 11020 |]);
    ("wal", [| 6522; 6326; 26; 26; 6486 |]);
    ("append+appends", [| 28928; 26618; 113; 113; 34404 |]);
    ("append-buffered+appends", [| 28928; 26618; 113; 113; 34238 |]);
    ("append-buffered+repeats", [| 88576; 46909; 346; 346; 122409 |]);
    ("dynamic+updates", [| 86640; 67872; 359; 329; 77323 |])
  ]

let test_build_charges () =
  Alcotest.(check (list string))
    "one row per builder"
    (List.map fst build_builders)
    (List.map fst build_golden);
  List.iter
    (fun (name, build) ->
      let got = build_row build in
      let want = List.assoc name build_golden in
      List.iteri
        (fun i f ->
          Alcotest.(check int)
            (Printf.sprintf "%s: %s" name f)
            want.(i) got.(i))
        [ "used_bits"; "size_bits"; "block_reads"; "block_writes";
          "bits_written" ])
    build_builders

(* A request that clamps to one distinct range runs the direct
   evaluator: for every builder, [[|r|]], [[|r; r|]] and [[|r; r'|]]
   with [r'] clamping to [r] answer and charge, field for field,
   exactly what [query] alone does from a cold pool. *)
let test_one_range_is_direct () =
  let sigma = 16 in
  let g = Workload.Gen.zipf ~seed:11 ~n:1024 ~sigma ~theta:1.0 () in
  List.iter
    (fun (name, build) ->
      let inst = build (device ()) ~sigma g.Workload.Gen.data in
      let dev = inst.Indexing.Instance.device in
      List.iter
        (fun ((lo, hi), r') ->
          Iosim.Device.clear_pool dev;
          Iosim.Device.reset_stats dev;
          let direct = inst.Indexing.Instance.query ~lo ~hi in
          let direct_stats = Iosim.Stats.snapshot (Iosim.Device.stats dev) in
          List.iter
            (fun ranges ->
              let what =
                Printf.sprintf "%s: %d slots of [%d,%d]" name
                  (Array.length ranges) lo hi
              in
              let answers, stats =
                Indexing.Instance.run inst ~pool:`Cold ranges
              in
              Array.iter
                (fun a ->
                  Alcotest.(check bool) (what ^ ": answer") true
                    (answers_identical direct a))
                answers;
              List.iter
                (fun (f, get, _) ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s: %s" what f)
                    (get direct_stats) (get stats))
                Iosim.Stats.fields)
            [ [| (lo, hi) |]; [| (lo, hi); (lo, hi) |]; [| (lo, hi); r' |] ])
        [ ((0, 6), (-3, 6)); ((5, 15), (5, sigma + 4)); ((0, 15), (-1, 99)) ])
    (builders @ updated_builders)

(* The planner itself: clamping, dedup order, slot mapping. *)
let test_plan () =
  let plan =
    Indexing.Batch.normalize ~sigma:8
      [| (3, 5); (9, 12); (-2, 1); (3, 5); (6, 2); (0, 7) |]
  in
  Alcotest.(check int) "queries" 6 plan.Indexing.Batch.queries;
  Alcotest.(check (list (pair int int)))
    "uniq sorted, clamped, deduped"
    [ (0, 1); (0, 7); (3, 5) ]
    (Array.to_list plan.Indexing.Batch.uniq);
  Alcotest.(check (list int))
    "slots" [ 2; -1; 0; 2; -1; 1 ]
    (Array.to_list plan.Indexing.Batch.class_of)

(* The CI contract, stated explicitly: every builder in the shared
   table is differentially batch-tested above.  Trivially true while
   [builders] is generated from the registry; fails loudly if someone
   reintroduces a hand-maintained list that lags the table. *)
let test_registry_covered () =
  let tested = List.map fst builders in
  List.iter
    (fun b ->
      if not (List.mem b.Registry.b_name tested) then
        Alcotest.failf "builder %S missing from batch differential suite"
          b.Registry.b_name)
    Registry.all;
  Alcotest.(check bool) "table non-trivial" true (List.length Registry.all >= 16)

let suite =
  Alcotest.test_case "batch planner" `Quick test_plan
  :: Alcotest.test_case "registry fully covered" `Quick test_registry_covered
  :: Alcotest.test_case "charges pinned per builder" `Quick test_golden_charges
  :: Alcotest.test_case "build and update charges pinned per builder" `Quick
       test_build_charges
  :: Alcotest.test_case "one range runs the direct evaluator" `Quick
       test_one_range_is_direct
  :: List.map
       (fun b ->
         Alcotest.test_case
           (Printf.sprintf "batch = loop (%s)" (fst b))
           `Quick (test_one b))
       builders
