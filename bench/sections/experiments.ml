(* The paper experiments E1–E13.  Pagh & Rao (PODS 2009) is a theory
   paper, so each experiment validates the space/I-O shape of one
   theorem or §1 claim on the simulated I/O model; EXPERIMENTS.md
   records the measured numbers. *)

open Common

(* ------------------------------------------------------------------ *)
(* E1 — Theorem 1: complete-tree index, query O(T/B + lg sigma).      *)

let e1 () =
  header "E1 (Thm 1): complete alphabet tree — I/Os vs T/B + lg sigma";
  let n = 65536 in
  List.iter
    (fun sigma ->
      let g = Workload.Gen.uniform ~seed:1 ~n ~sigma in
      let dev = device () in
      let inst = Secidx.Alphabet_tree.instance dev ~sigma g.Workload.Gen.data in
      fmt "n=%d sigma=%d space=%d KiB (n lg^2 sigma = %d KiB)\n" n sigma
        (inst.Indexing.Instance.size_bits / 8192)
        (let lg = Bitio.Codes.ceil_log2 sigma in
         n * lg * lg / 8192);
      let rows =
        List.map
          (fun ell ->
            let ranges =
              Workload.Queries.fixed_width_ranges ~seed:2 ~sigma ~ell ~count:8
            in
            let samples =
              List.map
                (fun { Workload.Queries.lo; hi } ->
                  let answers, stats =
                    Indexing.Instance.run inst ~pool:`Cold [| (lo, hi) |]
                  in
                  let answer = answers.(0) in
                  let t_bits = Indexing.Answer.compressed_bits answer in
                  let opt = float_of_int t_bits /. 1024.0 in
                  (float_of_int (Iosim.Stats.ios stats), opt))
                ranges
            in
            let ios = avg (List.map fst samples) in
            let opt = avg (List.map snd samples) in
            [
              string_of_int ell;
              Printf.sprintf "%.1f" opt;
              Printf.sprintf "%.1f" ios;
              Printf.sprintf "%.2f"
                (ios /. (opt +. float_of_int (Bitio.Codes.ceil_log2 sigma)));
            ])
          [ 1; 4; 16; 64; sigma / 2 ]
      in
      table [ "ell"; "T/B"; "I/Os"; "I/Os/(T/B+lg s)" ] rows)
    [ 256; 1024 ]

(* ------------------------------------------------------------------ *)
(* E2 — Theorem 2: optimal index; space vs nH0, query vs z lg(n/z)/B. *)

let e2 () =
  header "E2 (Thm 2): optimal static index — space vs nH0, I/Os vs z lg(n/z)/B";
  let n = 65536 and sigma = 256 in
  fmt "space (n=%d, sigma=%d):\n" n sigma;
  let space_rows =
    List.map
      (fun theta ->
        let g = Workload.Gen.zipf ~seed:3 ~n ~sigma ~theta () in
        let dev = device () in
        let t = Secidx.Static_index.build dev ~sigma g.Workload.Gen.data in
        let nh0 = Cbitmap.Entropy.nh0_bits ~sigma g.Workload.Gen.data in
        let size = float_of_int (Secidx.Static_index.size_bits t) in
        let meta = float_of_int (Secidx.Static_index.metadata_bits t) in
        [
          Printf.sprintf "%.1f" theta;
          Printf.sprintf "%.0f" (nh0 /. 8192.0);
          Printf.sprintf "%.0f" ((size -. meta) /. 8192.0);
          Printf.sprintf "%.0f" (meta /. 8192.0);
          Printf.sprintf "%.2f" ((size -. meta) /. nh0);
        ])
      [ 0.0; 0.5; 1.0; 1.5 ]
  in
  table
    [ "zipf"; "nH0 KiB"; "bitmaps KiB"; "meta KiB"; "bitmaps/nH0" ]
    space_rows;
  fmt "\nquery (zipf 1.0):\n";
  let g = Workload.Gen.zipf ~seed:3 ~n ~sigma ~theta:1.0 () in
  let dev = device () in
  let inst = Secidx.Static_index.instance dev ~sigma g.Workload.Gen.data in
  let query_rows =
    List.filter_map
      (fun target ->
        let samples =
          Workload.Queries.selectivity_ranges ~seed:4 g ~target ~count:8
        in
        let data =
          List.map
            (fun ({ Workload.Queries.lo; hi }, z) ->
              let answers, stats =
                Indexing.Instance.run inst ~pool:`Cold [| (lo, hi) |]
              in
              let answer = answers.(0) in
              let t_bits = Indexing.Answer.compressed_bits answer in
              ( float_of_int z,
                float_of_int t_bits /. 1024.0,
                float_of_int (Iosim.Stats.ios stats) ))
            samples
        in
        let z = avg (List.map (fun (z, _, _) -> z) data) in
        let opt = avg (List.map (fun (_, o, _) -> o) data) in
        let ios = avg (List.map (fun (_, _, i) -> i) data) in
        if z < 1.0 then None
        else
          Some
            [
              Printf.sprintf "%.3f" target;
              Printf.sprintf "%.0f" z;
              Printf.sprintf "%.1f" opt;
              Printf.sprintf "%.1f" ios;
              Printf.sprintf "%.2f" (ios /. (opt +. 8.0));
            ])
      [ 0.001; 0.01; 0.05; 0.2; 0.5 ]
  in
  table [ "selectivity"; "z"; "T/B"; "I/Os"; "I/Os/(T/B+c)" ] query_rows

(* ------------------------------------------------------------------ *)
(* E3 — §1 comparison: every index, bits read vs output size.         *)

let e3 () =
  header
    "E3 (intro): who transfers how much — (block reads x B) / compressed answer";
  let n = 65536 and sigma = 256 in
  let g = Workload.Gen.uniform ~seed:5 ~n ~sigma in
  let data = g.Workload.Gen.data in
  (* At sigma = 256 the shared table's scaled widths reproduce the
     historical parameters binned w:16 and multires w:4. *)
  let builders =
    Registry.named
      [
        "btree"; "bitmap"; "range-encoded"; "cbitmap"; "binned"; "multires";
        "wavelet"; "alphabet-tree"; "alphabet-doubling"; "static";
      ]
  in
  let ells = [ 2; 16; 64; 192 ] in
  let rows =
    List.map
      (fun { Registry.b_build; _ } ->
        (* Pool of 256 blocks: the paper's M = B(sigma lg n)^Omega(1)
           without being so large that whole structures stay cached. *)
        let dev = device ~mem_blocks:256 () in
        let inst = b_build dev ~sigma data in
        let cells =
          List.map
            (fun ell ->
              let ranges =
                Workload.Queries.fixed_width_ranges ~seed:6 ~sigma ~ell ~count:5
              in
              let ratios =
                List.map
                  (fun { Workload.Queries.lo; hi } ->
                    let answers, stats =
                      Indexing.Instance.run inst ~pool:`Cold [| (lo, hi) |]
                    in
                    let answer = answers.(0) in
                    let t_bits =
                      max 1 (Indexing.Answer.compressed_bits answer)
                    in
                    float_of_int (stats.Iosim.Stats.block_reads * 1024)
                    /. float_of_int t_bits)
                  ranges
              in
              Printf.sprintf "%.1f" (avg ratios))
            ells
        in
        inst.Indexing.Instance.name
        :: Printf.sprintf "%.0f"
             (float_of_int inst.Indexing.Instance.size_bits /. 8192.0)
        :: cells)
      builders
  in
  table
    ([ "index"; "KiB" ] @ List.map (fun e -> Printf.sprintf "l=%d" e) ells)
    rows

(* ------------------------------------------------------------------ *)
(* E4 — §1.2: the binning trade-off, and its absence in Thm 2.        *)

let e4 () =
  header "E4 (§1.2): multi-resolution space/time trade-off vs no-trade-off";
  let n = 65536 and sigma = 256 in
  let g = Workload.Gen.uniform ~seed:7 ~n ~sigma in
  let data = g.Workload.Gen.data in
  let wide = (16, 207) in
  let run name build =
    let dev = device () in
    let inst : Indexing.Instance.t = build dev in
    let lo, hi = wide in
    let _, stats = Indexing.Instance.run inst ~pool:`Cold [| (lo, hi) |] in
    [
      name;
      Printf.sprintf "%.0f"
        (float_of_int inst.Indexing.Instance.size_bits /. 8192.0);
      string_of_int (Iosim.Stats.ios stats);
    ]
  in
  let rows =
    [
      run "multires w=2" (fun dev ->
          Baselines.Multires_index.instance dev ~sigma ~w:2 data);
      run "multires w=4" (fun dev ->
          Baselines.Multires_index.instance dev ~sigma ~w:4 data);
      run "multires w=16" (fun dev ->
          Baselines.Multires_index.instance dev ~sigma ~w:16 data);
      run "multires w=64" (fun dev ->
          Baselines.Multires_index.instance dev ~sigma ~w:64 data);
      run "per-char (w=sigma)" (fun dev ->
          Baselines.Cbitmap_index.instance dev ~sigma data);
      run "thm2 (doubling)" (fun dev ->
          Secidx.Static_index.instance dev ~sigma data);
      run "thm2 (all levels)" (fun dev ->
          Secidx.Static_index.instance ~schedule:`All dev ~sigma data);
      run "thm2 (leaves only)" (fun dev ->
          Secidx.Static_index.instance ~schedule:`Leaves_only dev ~sigma data);
    ]
  in
  table [ "index"; "KiB"; "wide-range I/Os" ] rows

(* ------------------------------------------------------------------ *)
(* E5 — Theorem 3: approximate queries.                               *)

let e5 () =
  header "E5 (Thm 3): approximate queries — bits read vs lg(1/eps), FP rate";
  let n = 65536 and sigma = 4096 in
  let g = Workload.Gen.uniform ~seed:8 ~n ~sigma in
  let dev = device () in
  let t = Secidx.Approx_index.build ~seed:9 dev ~sigma g.Workload.Gen.data in
  let lo = 70 and hi = 71 in
  let naive = Workload.Queries.naive_answer g { Workload.Queries.lo; hi } in
  let z = Cbitmap.Posting.cardinal naive in
  Iosim.Device.clear_pool dev;
  Iosim.Device.reset_stats dev;
  ignore (Secidx.Static_index.query (Secidx.Approx_index.base t) ~lo ~hi);
  let exact_bits = (Iosim.Device.stats dev).Iosim.Stats.bits_read in
  fmt "z=%d, exact query reads %d bits\n" z exact_bits;
  let rows =
    List.map
      (fun inv_eps ->
        let epsilon = 1.0 /. float_of_int inv_eps in
        Iosim.Device.clear_pool dev;
        Iosim.Device.reset_stats dev;
        let answer = Secidx.Approx_index.query t ~epsilon ~lo ~hi in
        let bits = (Iosim.Device.stats dev).Iosim.Stats.bits_read in
        let j =
          match answer with
          | Secidx.Approx_index.Hashed { j; _ } -> string_of_int j
          | Secidx.Approx_index.Exact _ -> "exact"
        in
        let cands = Secidx.Approx_index.candidates answer ~n in
        let fp =
          float_of_int (Cbitmap.Posting.cardinal cands - z)
          /. float_of_int (n - z)
        in
        [
          Printf.sprintf "1/%d" inv_eps;
          j;
          string_of_int bits;
          Printf.sprintf "%.4f" fp;
          Printf.sprintf "%.4f" epsilon;
        ])
      [ 2; 4; 16; 64; 1024; 100000 ]
  in
  table [ "eps"; "j"; "bits read"; "FP rate"; "bound" ] rows

(* ------------------------------------------------------------------ *)
(* E6/E7 — Theorems 4 & 5: appends.                                   *)

let e6 () =
  header "E6 (Thm 4): unbuffered appends — amortized I/Os per append";
  let rows =
    List.map
      (fun n ->
        (* appends = n crosses exactly one global rebuild. *)
        let per_op, rebuilds =
          append_cost ~buffered:false ~block_bits:1024 ~mem_blocks:64 ~sigma:64
            ~n ~appends:n
        in
        [
          string_of_int n;
          Printf.sprintf "%.2f" per_op;
          string_of_int rebuilds;
          string_of_int
            (Bitio.Codes.floor_log2 (max 2 (Bitio.Codes.floor_log2 (max 2 n))));
        ])
      [ 4096; 16384; 65536 ]
  in
  table [ "n"; "I/Os per append"; "rebuilds"; "lg lg n" ] rows

let e7 () =
  header "E7 (Thm 5): buffered appends — amortized I/Os per append vs B";
  let rows =
    List.concat_map
      (fun block_bits ->
        List.map
          (fun buffered ->
            let per_op, _ =
              append_cost ~buffered ~block_bits ~mem_blocks:8 ~sigma:16
                ~n:16384 ~appends:8000
            in
            [
              string_of_int block_bits;
              (if buffered then "thm5-buffered" else "thm4-direct");
              Printf.sprintf "%.3f" per_op;
            ])
          [ false; true ])
      [ 1024; 4096; 16384 ]
  in
  table [ "B(bits)"; "variant"; "I/Os per append" ] rows

(* ------------------------------------------------------------------ *)
(* E8 — Theorem 6: buffered compressed bitmap index.                  *)

let e8 () =
  header "E8 (Thm 6): buffered bitmap index — update and point-query cost";
  let sigma = 256 and n = 65536 in
  let g = Workload.Gen.zipf ~seed:12 ~n ~sigma ~theta:1.0 () in
  let postings = Indexing.Common.positions_by_char ~sigma g.Workload.Gen.data in
  let dev = device ~mem_blocks:32 () in
  let t = Secidx.Buffered_bitmap.build dev postings in
  let rng = Hashing.Universal.Rng.create ~seed:13 in
  Iosim.Device.reset_stats dev;
  let updates = 20000 in
  for _ = 1 to updates do
    let op =
      if Hashing.Universal.Rng.below rng 4 = 0 then Secidx.Buffered_bitmap.Remove
      else Secidx.Buffered_bitmap.Add
    in
    Secidx.Buffered_bitmap.update t op
      ~stream:(Hashing.Universal.Rng.below rng sigma)
      ~pos:(Hashing.Universal.Rng.below rng (4 * n))
  done;
  let upd = Iosim.Stats.snapshot (Iosim.Device.stats dev) in
  fmt "updates: %.3f I/Os per op (%d updates, height %d, %d leaf blocks)\n"
    (float_of_int (Iosim.Stats.ios upd) /. float_of_int updates)
    updates
    (Secidx.Buffered_bitmap.height t)
    (Secidx.Buffered_bitmap.leaf_count t);
  let rows =
    List.map
      (fun stream ->
        Iosim.Device.clear_pool dev;
        Iosim.Device.reset_stats dev;
        let p = Secidx.Buffered_bitmap.point_query t stream in
        let ios = Iosim.Stats.ios (Iosim.Device.stats dev) in
        [
          string_of_int stream;
          string_of_int (Cbitmap.Posting.cardinal p);
          string_of_int ios;
        ])
      [ 0; 1; 4; 16; 64; 255 ]
  in
  table [ "stream"; "T (positions)"; "point-query I/Os" ] rows

(* ------------------------------------------------------------------ *)
(* E9 — Theorem 7: fully dynamic index.                               *)

let e9 () =
  header "E9 (Thm 7): fully dynamic index — change() cost and query cost";
  let n = 16384 and sigma = 64 in
  let g = Workload.Gen.uniform ~seed:14 ~n ~sigma in
  let dev = device ~mem_blocks:64 () in
  let t = Secidx.Dynamic_index.build dev ~sigma g.Workload.Gen.data in
  let rng = Hashing.Universal.Rng.create ~seed:15 in
  Iosim.Device.reset_stats dev;
  let updates = 4000 in
  for _ = 1 to updates do
    Secidx.Dynamic_index.change t
      ~pos:(Hashing.Universal.Rng.below rng n)
      (Hashing.Universal.Rng.below rng sigma)
  done;
  let upd = Iosim.Stats.snapshot (Iosim.Device.stats dev) in
  fmt "changes: %.2f I/Os per op (%d ops, %d rebuilds)\n"
    (float_of_int (Iosim.Stats.ios upd) /. float_of_int updates)
    updates
    (Secidx.Dynamic_index.rebuilds t);
  (* Comparison: the same update volume on a dynamic B+tree (a change
     is a delete+insert there; we charge two inserts as a proxy). *)
  let dev_bt = device ~mem_blocks:64 () in
  let bt = Baselines.Btree_dynamic.build dev_bt ~sigma g.Workload.Gen.data in
  Iosim.Device.reset_stats dev_bt;
  let rng_bt = Hashing.Universal.Rng.create ~seed:15 in
  for i = 0 to (updates / 2) - 1 do
    Baselines.Btree_dynamic.insert bt
      ~char_:(Hashing.Universal.Rng.below rng_bt sigma)
      ~pos:(n + i)
  done;
  fmt "dynamic btree baseline: %.2f I/Os per insert\n"
    (float_of_int (Iosim.Stats.ios (Iosim.Device.stats dev_bt))
    /. float_of_int (updates / 2));
  let rows =
    List.map
      (fun (lo, hi) ->
        Iosim.Device.clear_pool dev;
        Iosim.Device.reset_stats dev;
        let answer = Secidx.Dynamic_index.query t ~lo ~hi in
        let ios = Iosim.Stats.ios (Iosim.Device.stats dev) in
        [
          Printf.sprintf "[%d..%d]" lo hi;
          string_of_int (Indexing.Answer.cardinal ~n answer);
          string_of_int ios;
        ])
      [ (5, 5); (10, 17); (0, 31); (8, 55) ]
  in
  table [ "range"; "z"; "query I/Os" ] rows;
  for pos = 0 to 999 do
    Secidx.Dynamic_index.delete t ~pos
  done;
  let answer = Secidx.Dynamic_index.query t ~lo:0 ~hi:(sigma - 1) in
  fmt "after deleting 1000 positions: full-range answer has %d of %d rows\n"
    (Indexing.Answer.cardinal ~n answer)
    n

(* ------------------------------------------------------------------ *)
(* E10 — RID intersection end to end.                                 *)

let e10 () =
  header "E10 (§1/§3): RID intersection — exact vs approximate";
  let rows_n = 65536 in
  let rng = Hashing.Universal.Rng.create ~seed:16 in
  let cols =
    [
      {
        Ridint.Table.name = "a";
        sigma = 4096;
        values = Array.init rows_n (fun _ -> Hashing.Universal.Rng.below rng 4096);
      };
      {
        Ridint.Table.name = "b";
        sigma = 4096;
        values = Array.init rows_n (fun _ -> Hashing.Universal.Rng.below rng 4096);
      };
      {
        Ridint.Table.name = "c";
        sigma = 4096;
        values = Array.init rows_n (fun _ -> Hashing.Universal.Rng.below rng 4096);
      };
    ]
  in
  let dev = device () in
  let t = Ridint.Table.create_approx ~seed:17 dev cols in
  let conds (wa, wb) =
    [
      { Ridint.Table.column = "a"; lo = 100; hi = 100 + wa };
      { Ridint.Table.column = "b"; lo = 500; hi = 500 + wb };
      { Ridint.Table.column = "c"; lo = 9; hi = 9 };
    ]
  in
  let rows =
    List.map
      (fun (wa, wb) ->
        let q = Planner.Ast.of_conditions (conds (wa, wb)) in
        let e = Planner.Exec.run_fixed t q in
        let a = Planner.Exec.run_fixed ~epsilon:0.1 t q in
        let exact = Option.get e.rows and checked = a.checked in
        let eb = e.stats.bits_read and ab = a.stats.bits_read in
        assert (Cbitmap.Posting.equal exact (Option.get a.rows));
        [
          Printf.sprintf "%dx%d" (wa + 1) (wb + 1);
          string_of_int (Cbitmap.Posting.cardinal exact);
          string_of_int checked;
          string_of_int eb;
          string_of_int ab;
          Printf.sprintf "%.2f" (float_of_int eb /. float_of_int (max 1 ab));
        ])
      [ (0, 0); (3, 3); (15, 15) ]
  in
  table
    [ "cond widths"; "answer"; "candidates"; "exact bits"; "approx bits";
      "exact/approx" ]
    rows

(* ------------------------------------------------------------------ *)
(* E11 — compression substrate.                                       *)

let e11 () =
  header "E11 (§1.2): gamma gap coding vs WAH vs raw, size vs density";
  let n = 65536 in
  let rng = Hashing.Universal.Rng.create ~seed:18 in
  let rows =
    List.map
      (fun denom ->
        let m0 = n / denom in
        let p =
          Cbitmap.Posting.of_list
            (List.init m0 (fun _ -> Hashing.Universal.Rng.below rng n))
        in
        let m = Cbitmap.Posting.cardinal p in
        let gamma = Cbitmap.Gap_codec.encoded_size p in
        let delta =
          Cbitmap.Gap_codec.encoded_size ~code:Cbitmap.Gap_codec.Delta p
        in
        let fib =
          Cbitmap.Gap_codec.encoded_size ~code:Cbitmap.Gap_codec.Fibonacci p
        in
        let wah = Cbitmap.Wah.size_bits (Cbitmap.Wah.encode ~n p) in
        let ef = Cbitmap.Elias_fano.size_bits (Cbitmap.Elias_fano.encode ~u:n p) in
        let bound = Cbitmap.Gap_codec.binomial_entropy_bits ~n ~m in
        [
          Printf.sprintf "1/%d" denom;
          string_of_int m;
          Printf.sprintf "%.0f" bound;
          string_of_int gamma;
          string_of_int delta;
          string_of_int fib;
          string_of_int ef;
          string_of_int wah;
          string_of_int n;
        ])
      [ 2; 8; 32; 128; 1024 ]
  in
  table
    [ "density"; "m"; "lg C(n,m)"; "gamma"; "delta"; "fib"; "elias-fano";
      "WAH"; "raw" ]
    rows

(* ------------------------------------------------------------------ *)
(* E12 — deletions and position translation.                          *)

let e12 () =
  header "E12 (§4): deletion position translation";
  let capacity = 65536 in
  let dev = device ~mem_blocks:16 () in
  let dm = Secidx.Delete_map.create dev ~capacity in
  let rng = Hashing.Universal.Rng.create ~seed:19 in
  Iosim.Device.reset_stats dev;
  let deletions = 10000 in
  for _ = 1 to deletions do
    Secidx.Delete_map.delete dm (Hashing.Universal.Rng.below rng capacity)
  done;
  let del = Iosim.Stats.snapshot (Iosim.Device.stats dev) in
  fmt "deletes: %.2f I/Os per op (%d requested, %d distinct)\n"
    (float_of_int (Iosim.Stats.ios del) /. float_of_int deletions)
    deletions
    (Secidx.Delete_map.deleted_count dm);
  Iosim.Device.clear_pool dev;
  Iosim.Device.reset_stats dev;
  let translations = 1000 in
  for k = 0 to translations - 1 do
    let i = Secidx.Delete_map.to_internal dm (k * 50) in
    assert (Secidx.Delete_map.to_external dm i = Some (k * 50))
  done;
  let tr = Iosim.Stats.snapshot (Iosim.Device.stats dev) in
  fmt "translations: %.2f I/Os per round-trip (lg n = %d)\n"
    (float_of_int (Iosim.Stats.ios tr) /. float_of_int translations)
    (Bitio.Codes.ceil_log2 capacity);
  fmt "needs_rebuild after %d/%d deletions: %b\n"
    (Secidx.Delete_map.deleted_count dm)
    capacity
    (Secidx.Delete_map.needs_rebuild dm)

(* ------------------------------------------------------------------ *)
(* E13 — design-choice ablations called out in DESIGN.md §4.          *)

let e13 () =
  header "E13 (DESIGN §4): ablations — codec, branching c, complement, B";
  let n = 65536 and sigma = 256 in
  let g = Workload.Gen.zipf ~seed:22 ~n ~sigma ~theta:1.0 () in
  let data = g.Workload.Gen.data in
  fmt "codec ablation (thm2, wide range [16..207]):\n";
  let codec_rows =
    List.map
      (fun (name, code) ->
        let dev = device () in
        let inst = Secidx.Static_index.instance ~code dev ~sigma data in
        let _, stats = Indexing.Instance.run inst ~pool:`Cold [| (16, 207) |] in
        [
          name;
          Printf.sprintf "%.0f"
            (float_of_int inst.Indexing.Instance.size_bits /. 8192.0);
          string_of_int (Iosim.Stats.ios stats);
        ])
      [
        ("gamma", Cbitmap.Gap_codec.Gamma);
        ("delta", Cbitmap.Gap_codec.Delta);
        ("rice k=2", Cbitmap.Gap_codec.Rice 2);
        ("fibonacci", Cbitmap.Gap_codec.Fibonacci);
      ]
  in
  table [ "codec"; "KiB"; "I/Os" ] codec_rows;
  fmt "\nbranching parameter c:\n";
  let c_rows =
    List.map
      (fun c ->
        let dev = device () in
        let inst = Secidx.Static_index.instance ~c dev ~sigma data in
        let _, s_narrow =
          Indexing.Instance.run inst ~pool:`Cold [| (40, 41) |]
        in
        let _, s_wide =
          Indexing.Instance.run inst ~pool:`Cold [| (16, 207) |]
        in
        [
          string_of_int c;
          Printf.sprintf "%.0f"
            (float_of_int inst.Indexing.Instance.size_bits /. 8192.0);
          string_of_int (Iosim.Stats.ios s_narrow);
          string_of_int (Iosim.Stats.ios s_wide);
        ])
      [ 2; 4; 8; 16 ]
  in
  table [ "c"; "KiB"; "narrow I/Os"; "wide I/Os" ] c_rows;
  fmt "\ncomplement trick (query [1..254], z/n = %.2f):\n"
    (float_of_int (Workload.Queries.naive_count g { Workload.Queries.lo = 1; hi = 254 })
    /. float_of_int n);
  let comp_rows =
    List.map
      (fun complement ->
        let dev = device () in
        let inst = Secidx.Static_index.instance ~complement dev ~sigma data in
        let _, stats = Indexing.Instance.run inst ~pool:`Cold [| (1, 254) |] in
        [
          (if complement then "on" else "off");
          string_of_int (Iosim.Stats.ios stats);
          string_of_int stats.Iosim.Stats.bits_read;
        ])
      [ true; false ]
  in
  table [ "complement"; "I/Os"; "bits read" ] comp_rows;
  fmt "\nblock size sensitivity (thm2, range [16..79]):\n";
  let b_rows =
    List.map
      (fun block_bits ->
        let dev = device ~block_bits ~mem_blocks:(1024 * 1024 / block_bits) () in
        let inst = Secidx.Static_index.instance dev ~sigma data in
        let _, stats = Indexing.Instance.run inst ~pool:`Cold [| (16, 79) |] in
        [
          string_of_int block_bits;
          string_of_int (Iosim.Stats.ios stats);
          string_of_int stats.Iosim.Stats.bits_read;
        ])
      [ 512; 1024; 4096; 16384 ]
  in
  table [ "B(bits)"; "I/Os"; "bits read" ] b_rows
