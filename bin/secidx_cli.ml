(* Command-line driver: build any index in the repository over a
   synthetic column (or a file of integers) and run range queries on
   the simulated I/O model.

     dune exec bin/secidx_cli.exe -- query --index static --length 65536 \
       --sigma 256 --dist zipf --theta 1.1 --lo 10 --hi 40
     dune exec bin/secidx_cli.exe -- compare --length 32768 --sigma 256 *)

open Cmdliner

let make_device block_bits mem_kib =
  Iosim.Device.create ~block_bits ~mem_bits:(mem_kib * 1024 * 8) ()

let gen_column dist seed n sigma theta run stay file =
  match file with
  | Some path ->
      let ic = open_in path in
      let values = ref [] in
      (try
         while true do
           values := int_of_string (String.trim (input_line ic)) :: !values
         done
       with End_of_file -> close_in ic);
      let data = Array.of_list (List.rev !values) in
      let sigma = Array.fold_left max 0 data + 1 in
      { Workload.Gen.sigma; data }
  | None -> (
      match dist with
      | `Uniform -> Workload.Gen.uniform ~seed ~n ~sigma
      | `Zipf -> Workload.Gen.zipf ~seed ~n ~sigma ~theta ()
      | `Clustered -> Workload.Gen.clustered ~seed ~n ~sigma ~run ()
      | `Markov -> Workload.Gen.markov ~seed ~n ~sigma ~stay ())

let indexes =
  [
    ("static", fun d ~sigma x -> Secidx.Static_index.instance d ~sigma x);
    ("complete-tree", fun d ~sigma x -> Secidx.Alphabet_tree.instance d ~sigma x);
    ( "complete-tree-fn3",
      fun d ~sigma x ->
        Secidx.Alphabet_tree.instance ~schedule:`Doubling d ~sigma x );
    ("dynamic", fun d ~sigma x -> Secidx.Dynamic_index.instance d ~sigma x);
    ("append", fun d ~sigma x -> Secidx.Append_index.instance d ~sigma x);
    ("btree", fun d ~sigma x -> Baselines.Btree.instance d ~sigma x);
    ("btree-dynamic", fun d ~sigma x -> Baselines.Btree_dynamic.instance d ~sigma x);
    ("bitmap", fun d ~sigma x -> Baselines.Bitmap_index.instance d ~sigma x);
    ("cbitmap", fun d ~sigma x -> Baselines.Cbitmap_index.instance d ~sigma x);
    ("roaring", fun d ~sigma x -> Baselines.Roaring_index.instance d ~sigma x);
    ("binned", fun d ~sigma x -> Baselines.Binned_index.instance d ~sigma ~w:16 x);
    ("multires", fun d ~sigma x -> Baselines.Multires_index.instance d ~sigma ~w:4 x);
    ("range-encoded", fun d ~sigma x -> Baselines.Range_encoded.instance d ~sigma x);
    ("wavelet", fun d ~sigma x -> Baselines.Wavelet.instance d ~sigma x);
  ]

(* Common options *)

let seed_t =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.")

let n_t =
  Arg.(value & opt int 65536 & info [ "length" ] ~doc:"Column length n.")

let sigma_t =
  Arg.(value & opt int 256 & info [ "sigma" ] ~doc:"Alphabet size.")

let dist_t =
  let dists =
    [ ("uniform", `Uniform); ("zipf", `Zipf); ("clustered", `Clustered);
      ("markov", `Markov) ]
  in
  Arg.(
    value
    & opt (enum dists) `Zipf
    & info [ "dist" ]
        ~doc:(Printf.sprintf "Distribution: %s." (Arg.doc_alts_enum dists)))

let theta_t =
  Arg.(value & opt float 1.0 & info [ "theta" ] ~doc:"Zipf exponent.")

let run_t =
  Arg.(value & opt int 32 & info [ "run" ] ~doc:"Clustered mean run length.")

let stay_t =
  Arg.(value & opt float 0.9 & info [ "stay" ] ~doc:"Markov stay probability.")

let file_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "file" ] ~doc:"Read the column from a file (one int per line).")

let block_bits_t =
  Arg.(value & opt int 1024 & info [ "block-bits" ] ~doc:"Block size B in bits.")

let mem_kib_t =
  Arg.(
    value & opt int 128 & info [ "mem-kib" ] ~doc:"Internal memory M in KiB.")

(* query command *)

let query_cmd =
  let index_t =
    let names = List.map (fun (name, _) -> (name, name)) indexes in
    Arg.(
      value
      & opt (enum names) "static"
      & info [ "index" ]
          ~doc:(Printf.sprintf "Index to build: %s." (Arg.doc_alts_enum names)))
  in
  let lo_t =
    Arg.(value & opt int 0 & info [ "lo" ] ~doc:"Range lower bound, 0 <= lo <= hi.")
  in
  let hi_t =
    Arg.(value & opt int 0 & info [ "hi" ] ~doc:"Range upper bound, hi < sigma.")
  in
  let show_t =
    Arg.(value & flag & info [ "show-positions" ] ~doc:"Print the RID list.")
  in
  let run index dist seed n sigma theta crun stay file block_bits mem_kib lo hi
      show =
    let g = gen_column dist seed n sigma theta crun stay file in
    let sigma = g.Workload.Gen.sigma in
    if not (0 <= lo && lo <= hi && hi < sigma) then
      `Error
        ( true,
          Printf.sprintf "the range must satisfy 0 <= lo <= hi < sigma; got lo=%d hi=%d sigma=%d"
            lo hi sigma )
    else
    let device = make_device block_bits mem_kib in
    let inst = List.assoc index indexes device ~sigma g.Workload.Gen.data in
    Printf.printf "index=%s n=%d sigma=%d H0=%.3f size=%d bits (%.1f KiB)\n"
      inst.Indexing.Instance.name (Workload.Gen.length g) g.Workload.Gen.sigma
      (Workload.Gen.h0 g) inst.Indexing.Instance.size_bits
      (float_of_int inst.Indexing.Instance.size_bits /. 8192.0);
    let answers, stats =
      Indexing.Instance.run inst ~pool:`Cold [| (lo, hi) |]
    in
    let answer = answers.(0) in
    let posting = Indexing.Answer.to_posting ~n:(Workload.Gen.length g) answer in
    Printf.printf "query [%d..%d]: z=%d%s\n" lo hi
      (Cbitmap.Posting.cardinal posting)
      (if Indexing.Answer.is_complement answer then " (complement form)" else "");
    Printf.printf "I/O: %d block reads, %d writes, %d pool hits, %d bits read\n"
      stats.Iosim.Stats.block_reads stats.Iosim.Stats.block_writes
      stats.Iosim.Stats.pool_hits stats.Iosim.Stats.bits_read;
    if show then
      Printf.printf "positions: %s\n"
        (Format.asprintf "%a" Cbitmap.Posting.pp posting);
    `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ index_t $ dist_t $ seed_t $ n_t $ sigma_t $ theta_t
        $ run_t $ stay_t $ file_t $ block_bits_t $ mem_kib_t $ lo_t $ hi_t
        $ show_t))
  in
  Cmd.v (Cmd.info "query" ~doc:"Build one index and run a range query.") term

(* compare command *)

let compare_cmd =
  let run dist seed n sigma theta crun stay file block_bits mem_kib =
    let g = gen_column dist seed n sigma theta crun stay file in
    let sigma = g.Workload.Gen.sigma in
    let data = g.Workload.Gen.data in
    Printf.printf "column: n=%d sigma=%d H0=%.3f bits/symbol\n%!"
      (Workload.Gen.length g) sigma (Workload.Gen.h0 g);
    Printf.printf "%-20s %12s %12s %12s\n" "index" "space(KiB)" "narrow I/Os"
      "wide I/Os";
    List.iter
      (fun (_, build) ->
        let device = make_device block_bits mem_kib in
        let inst = build device ~sigma data in
        let narrow_hi = min (sigma - 1) 1 in
        let _, s1 =
          Indexing.Instance.run inst ~pool:`Cold [| (0, narrow_hi) |]
        in
        let wide_lo = sigma / 8 and wide_hi = sigma - 1 - (sigma / 8) in
        let _, s2 =
          Indexing.Instance.run inst ~pool:`Cold [| (wide_lo, wide_hi) |]
        in
        Printf.printf "%-20s %12.1f %12d %12d\n%!"
          inst.Indexing.Instance.name
          (float_of_int inst.Indexing.Instance.size_bits /. 8192.0)
          (Iosim.Stats.ios s1) (Iosim.Stats.ios s2))
      indexes
  in
  let term =
    Term.(
      const run $ dist_t $ seed_t $ n_t $ sigma_t $ theta_t $ run_t $ stay_t
      $ file_t $ block_bits_t $ mem_kib_t)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Build every index over one column and compare.")
    term

let main_cmd =
  let info =
    Cmd.info "secidx"
      ~doc:
        "Secondary indexing in one dimension (Pagh & Rao, PODS 2009): \
         reference implementation on a simulated I/O model."
  in
  Cmd.group info [ query_cmd; compare_cmd ]

let () = exit (Cmd.eval main_cmd)
