(* Batched query execution (PR 5).  For every index in the
   shared builder table and every batch size k, the same k alphabet
   ranges are issued twice: as k independent cold queries (pool
   cleared and stats reset before each — the pre-batching situation)
   and as one cold [Instance.run] call (a single cold start for the
   whole batch: clamp/dedupe/merge planning, one decode per touched
   extent, scan-resistant pool, device readahead).  The gate: every
   batched answer is bit-identical — same constructor, same posting —
   to its cold counterpart for every index and every k, and the static
   index's total-I/O reduction at k = 64 on the E2 workload is at
   least 3x.  Emits BENCH_PR5.json. *)

open Common

let answers_identical a b =
  match (a, b) with
  | Indexing.Answer.Direct p, Indexing.Answer.Direct q
  | Indexing.Answer.Complement p, Indexing.Answer.Complement q ->
      Cbitmap.Posting.equal p q
  | _ -> false

(* Mixed-width ranges anchored at values observed in the string: the
   query distribution follows the data distribution (here E2's zipf),
   so large batches repeat hot points and overlap around hot values —
   exactly the redundancy the planner exists to collapse.  The cold
   baseline runs the identical ranges.  Deterministic. *)
let batch_ranges ~seed ~sigma ~k data =
  let widths = [| 1; 2; 4; 8; 16; 48 |] in
  let n = Array.length data in
  let state = ref (((seed * 2654435761) lxor 0x9E3779B9) land 0x3FFFFFFF) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  Array.init k (fun i ->
      let w = widths.(i mod Array.length widths) in
      let lo = min (sigma - 1) data.(next () mod n) in
      (lo, min (sigma - 1) (lo + w - 1)))

type batch_row = {
  br_k : int;
  br_cold_ios : int;
  br_batch_ios : int;
  br_cold_seeks : int;
  br_batch_seeks : int;
  br_pool_hit_rate : float;
  br_prefetches : int;
  br_prefetch_hits : int;
  br_equal : bool;
}

let batch_one ~sigma ~ks ~data inst =
  List.map
    (fun k ->
      let ranges = batch_ranges ~seed:41 ~sigma ~k data in
      let cold =
        Array.map
          (fun (lo, hi) ->
            Indexing.Instance.run inst ~pool:`Cold [| (lo, hi) |])
          ranges
      in
      let cold_ios =
        Array.fold_left (fun acc (_, s) -> acc + Iosim.Stats.ios s) 0 cold
      in
      let cold_seeks =
        Array.fold_left (fun acc (_, s) -> acc + s.Iosim.Stats.seeks) 0 cold
      in
      let answers, bs = Indexing.Instance.run inst ~pool:`Cold ranges in
      let equal = ref (Array.length answers = Array.length ranges) in
      Array.iteri
        (fun i (a, _) ->
          if not (answers_identical a.(0) answers.(i)) then equal := false)
        cold;
      {
        br_k = k;
        br_cold_ios = cold_ios;
        br_batch_ios = Iosim.Stats.ios bs;
        br_cold_seeks = cold_seeks;
        br_batch_seeks = bs.Iosim.Stats.seeks;
        br_pool_hit_rate = Iosim.Stats.pool_hit_rate bs;
        br_prefetches = bs.Iosim.Stats.prefetches;
        br_prefetch_hits = bs.Iosim.Stats.prefetch_hits;
        br_equal = !equal;
      })
    ks

let speedup r =
  float_of_int r.br_cold_ios /. float_of_int (max 1 r.br_batch_ios)

let run ~smoke =
  let n = if smoke then 8192 else 65536 and sigma = 256 in
  let g = Workload.Gen.zipf ~seed:3 ~n ~sigma ~theta:1.0 () in
  let data = g.Workload.Gen.data in
  let ks = [ 1; 8; 64; 256 ] in
  let rows =
    List.map
      (fun { Registry.b_name; b_build; _ } ->
        let dev = device ~pool_policy:`Segmented () in
        let inst = b_build dev ~sigma data in
        (b_name, batch_one ~sigma ~ks ~data inst))
      Registry.all
  in
  table
    [ "index"; "k"; "cold IOs"; "batch IOs"; "speedup"; "hit-rate";
      "prefetch"; "pf-hits"; "equal" ]
    (List.concat_map
       (fun (name, rs) ->
         List.map
           (fun r ->
             [ name; string_of_int r.br_k; string_of_int r.br_cold_ios;
               string_of_int r.br_batch_ios;
               Printf.sprintf "%.2f" (speedup r);
               Printf.sprintf "%.2f" r.br_pool_hit_rate;
               string_of_int r.br_prefetches;
               string_of_int r.br_prefetch_hits;
               (if r.br_equal then "yes" else "NO") ])
           rs)
       rows);
  (* Same batch on the same structure under both pool policies: the
     segmented pool must not lose I/Os to scan pollution. *)
  let policies =
    List.map
      (fun (pname, policy) ->
        let dev = device ~pool_policy:policy () in
        let inst = Secidx.Static_index.instance dev ~sigma data in
        let _, s =
          Indexing.Instance.run inst ~pool:`Cold
            (batch_ranges ~seed:41 ~sigma ~k:64 data)
        in
        (pname, Iosim.Stats.ios s, Iosim.Stats.pool_hit_rate s))
      [ ("lru", `Lru); ("segmented", `Segmented) ]
  in
  List.iter
    (fun (pname, ios, hr) ->
      fmt "static k=64 pool=%s: IOs=%d hit-rate=%.2f\n" pname ios hr)
    policies;
  let mismatches =
    List.fold_left
      (fun acc (_, rs) ->
        List.fold_left (fun acc r -> if r.br_equal then acc else acc + 1) acc rs)
      0 rows
  in
  let static64 =
    List.find (fun r -> r.br_k = 64) (List.assoc "static" rows)
  in
  let static_speedup = speedup static64 in
  let pass = mismatches = 0 && static_speedup >= 3.0 in
  fmt "answer mismatches=%d static k=64 speedup=%.2fx (gate >= 3.0)\n"
    mismatches static_speedup;
  write_artifact ~pr:5
    ~label:"batched query execution vs independent cold queries" ~smoke
    ~gate:
      ( pass,
        Printf.sprintf "mismatches=%d static_speedup_k64=%.2f" mismatches
          static_speedup )
    [
      ("n", J.Int n);
      ("sigma", J.Int sigma);
      ( "builders",
        J.List
          (List.map
             (fun (name, rs) ->
               J.Obj
                 [
                   ("name", J.String name);
                   ( "batches",
                     J.List
                       (List.map
                          (fun r ->
                            J.Obj
                              [
                                ("k", J.Int r.br_k);
                                ("cold_ios", J.Int r.br_cold_ios);
                                ("batch_ios", J.Int r.br_batch_ios);
                                ("speedup", J.Float (speedup r));
                                ("cold_seeks", J.Int r.br_cold_seeks);
                                ("batch_seeks", J.Int r.br_batch_seeks);
                                ("pool_hit_rate", J.Float r.br_pool_hit_rate);
                                ("prefetches", J.Int r.br_prefetches);
                                ("prefetch_hits", J.Int r.br_prefetch_hits);
                                ("answers_equal", J.Bool r.br_equal);
                              ])
                          rs) );
                 ])
             rows) );
      ( "pool_policies",
        J.List
          (List.map
             (fun (pname, ios, hr) ->
               J.Obj
                 [
                   ("policy", J.String pname);
                   ("ios", J.Int ios);
                   ("pool_hit_rate", J.Float hr);
                 ])
             policies) );
      ( "gate",
        J.Obj
          [
            ("answer_mismatches", J.Int mismatches);
            ("static_speedup_k64", J.Float static_speedup);
            ("pass", J.Bool pass);
          ] );
    ]
