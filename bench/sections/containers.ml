(* Adaptive hybrid container payloads (PR 7).

   Space: per-character postings of four workload shapes (uniform /
   Zipf / clustered / Markov) and their concatenation ("mixed") are
   encoded with each single codec — gamma gaps, WAH words, Elias–Fano
   — and with the chunked hybrid containers; the hybrid's density
   selector must track the best single codec on the mixed workload
   (gate: within 5%), because it picks array/bitmap/run per chunk
   where a single codec commits globally.

   Answers: the roaring baseline must be bit-identical to the naive
   reference on every workload, query by query and batched.

   I/O: on the clustered workload the run containers must read fewer
   payload bits than the gamma-gap index over the same query mix
   (gate: measured reduction), since a run encodes in two fields what
   gamma spells out position by position. *)

open Common

let run ~smoke =
  let n = if smoke then 8192 else 65536 and sigma = 256 in
  let base_workloads =
    [
      ("uniform", Workload.Gen.uniform ~seed:71 ~n ~sigma);
      ("zipf", Workload.Gen.zipf ~seed:72 ~n ~sigma ~theta:1.2 ());
      ("clustered", Workload.Gen.clustered ~seed:73 ~n ~sigma ~run:64 ());
      ("markov", Workload.Gen.markov ~seed:74 ~n ~sigma ~stay:0.98 ());
    ]
  in
  (* Mixed: concatenated quarters of the four shapes — locally coherent
     regions of very different density, the case per-extent selection
     is built for. *)
  let workloads =
    base_workloads
    @ [
        ( "mixed",
          let q = n / 4 in
          {
            Workload.Gen.sigma;
            data =
              Array.concat
                (List.map
                   (fun (_, g) -> Array.sub g.Workload.Gen.data 0 q)
                   base_workloads);
          } );
      ]
  in
  let chunk = min 1024 n in
  let codec_sizes data =
    let postings = Indexing.Common.positions_by_char ~sigma data in
    let sum f = Array.fold_left (fun acc p -> acc + f p) 0 postings in
    let gamma = sum (fun p -> Cbitmap.Gap_codec.encoded_size p) in
    let wah = sum (fun p -> Cbitmap.Wah.size_bits (Cbitmap.Wah.encode ~n p)) in
    let ef =
      sum (fun p -> Cbitmap.Elias_fano.size_bits (Cbitmap.Elias_fano.encode ~u:n p))
    in
    let hybrid =
      sum (fun p -> Cbitmap.Container.chunked_size ~universe:n ~chunk p)
    in
    (gamma, wah, ef, hybrid)
  in
  let mk_queries seed =
    let ranges =
      List.map
        (fun { Workload.Queries.lo; hi } -> (lo, hi))
        (Workload.Queries.random_ranges ~seed ~sigma ~count:(if smoke then 24 else 48))
    in
    Array.of_list
      ([ (0, sigma - 1); (0, 0); (sigma - 1, sigma - 1); (7, 70) ] @ ranges)
  in
  let queries = mk_queries 75 in
  let run_one (wname, (g : Workload.Gen.t)) =
    let data = g.Workload.Gen.data in
    let gamma_bits, wah_bits, ef_bits, hybrid_bits = codec_sizes data in
    (* Differential: roaring vs the naive reference, query by query
       and batched; the ledger must stay exact under the padding
       split. *)
    let dev = device () in
    let ledger = Obs.Ledger.create () in
    Iosim.Device.set_ledger dev ledger;
    let roaring = Baselines.Roaring_index.instance dev ~sigma data in
    Iosim.Device.clear_ledger dev;
    let ledger_exact = Obs.Ledger.total ledger = Iosim.Device.used_bits dev in
    let mismatches = ref 0 in
    Array.iter
      (fun (lo, hi) ->
        let got =
          Indexing.Answer.to_posting ~n
            (fst (Indexing.Instance.run roaring ~pool:`Cold [| (lo, hi) |])).(0)
        in
        let naive =
          Workload.Queries.naive_answer g { Workload.Queries.lo; hi }
        in
        if not (Cbitmap.Posting.equal got naive) then incr mismatches)
      queries;
    let batch_answers, _ = Indexing.Instance.run roaring ~pool:`Cold queries in
    Array.iteri
      (fun i a ->
        let lo, hi = queries.(i) in
        let naive =
          Workload.Queries.naive_answer g { Workload.Queries.lo; hi }
        in
        if not (Cbitmap.Posting.equal (Indexing.Answer.to_posting ~n a) naive)
        then incr mismatches)
      batch_answers;
    (* I/O over the same query mix, cold each time, hybrid containers
       vs the gamma-gap stream table. *)
    let io_of inst =
      Array.fold_left
        (fun acc (lo, hi) ->
          let _, s = Indexing.Instance.run inst ~pool:`Cold [| (lo, hi) |] in
          acc + s.Iosim.Stats.bits_read)
        0 queries
    in
    let io_hybrid = io_of roaring in
    let io_gamma =
      io_of (Baselines.Cbitmap_index.instance (device ()) ~sigma data)
    in
    (wname, gamma_bits, wah_bits, ef_bits, hybrid_bits, !mismatches,
     io_hybrid, io_gamma, ledger_exact, Obs.Ledger.to_json ledger)
  in
  let rows = List.map run_one workloads in
  table
    [ "workload"; "gamma"; "wah"; "elias-fano"; "hybrid"; "hyb/best";
      "IO hyb"; "IO gamma"; "equal" ]
    (List.map
       (fun (w, ga, wa, ef, hy, mis, ioh, iog, _, _) ->
         let best = min ga (min wa ef) in
         [ w; string_of_int ga; string_of_int wa; string_of_int ef;
           string_of_int hy;
           Printf.sprintf "%.3f" (float_of_int hy /. float_of_int best);
           string_of_int ioh; string_of_int iog;
           (if mis = 0 then "yes" else "NO") ])
       rows);
  let find w =
    List.find (fun (w', _, _, _, _, _, _, _, _, _) -> w' = w) rows
  in
  let _, mga, mwa, mef, mhy, _, _, _, _, _ = find "mixed" in
  let mixed_best = min mga (min mwa mef) in
  let mixed_ratio = float_of_int mhy /. float_of_int mixed_best in
  let _, _, _, _, _, _, cl_ioh, cl_iog, _, _ = find "clustered" in
  let io_reduction = float_of_int cl_iog /. float_of_int cl_ioh in
  let total_mismatches =
    List.fold_left (fun acc (_, _, _, _, _, m, _, _, _, _) -> acc + m) 0 rows
  in
  let ledgers_exact =
    List.for_all (fun (_, _, _, _, _, _, _, _, ok, _) -> ok) rows
  in
  let pass =
    total_mismatches = 0 && mixed_ratio <= 1.05 && io_reduction > 1.0
    && ledgers_exact
  in
  fmt
    "mixed: hybrid/best=%.3f (gate <= 1.05)  clustered: gamma/hybrid \
     bits-read=%.2fx (gate > 1.0)  mismatches=%d  ledgers exact=%b\n"
    mixed_ratio io_reduction total_mismatches ledgers_exact;
  write_artifact ~pr:7
    ~label:"adaptive hybrid container payloads" ~smoke
    ~gate:
      ( pass,
        Printf.sprintf
          "mismatches=%d mixed_ratio=%.3f io_reduction=%.2f ledgers_exact=%b"
          total_mismatches mixed_ratio io_reduction ledgers_exact )
    [
      ("n", J.Int n);
      ("sigma", J.Int sigma);
      ("chunk", J.Int chunk);
      ( "workloads",
        J.List
          (List.map
             (fun (w, ga, wa, ef, hy, mis, ioh, iog, lex, lj) ->
               J.Obj
                 [
                   ("name", J.String w);
                   ("gamma_bits", J.Int ga);
                   ("wah_bits", J.Int wa);
                   ("elias_fano_bits", J.Int ef);
                   ("hybrid_bits", J.Int hy);
                   ("mismatches", J.Int mis);
                   ("io_hybrid_bits_read", J.Int ioh);
                   ("io_gamma_bits_read", J.Int iog);
                   ("ledger_exact", J.Bool lex);
                   ("ledger", lj);
                 ])
             rows) );
      ( "gate",
        J.Obj
          [
            ("mixed_hybrid_over_best", J.Float mixed_ratio);
            ("mixed_max", J.Float 1.05);
            ("clustered_io_reduction", J.Float io_reduction);
            ("mismatches", J.Int total_mismatches);
            ("ledgers_exact", J.Bool ledgers_exact);
            ("pass", J.Bool pass);
          ] );
    ]
