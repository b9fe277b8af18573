(* Robustness suite: input validation, error paths, and cross-index
   agreement (every structure must give the same answer to the same
   query on the same data). *)

let qcheck = QCheck_alcotest.to_alcotest

let device ?(block_bits = 256) ?(mem_blocks = 128) () =
  Iosim.Device.create ~block_bits ~mem_bits:(mem_blocks * block_bits) ()

(* --- cross-index agreement --- *)

let all_builders =
  [
    (fun dev ~sigma data -> Baselines.Btree.instance dev ~sigma data);
    (fun dev ~sigma data -> Baselines.Btree_dynamic.instance dev ~sigma data);
    (fun dev ~sigma data -> Baselines.Bitmap_index.instance dev ~sigma data);
    (fun dev ~sigma data -> Baselines.Cbitmap_index.instance dev ~sigma data);
    (fun dev ~sigma data -> Baselines.Binned_index.instance dev ~sigma ~w:3 data);
    (fun dev ~sigma data ->
      Baselines.Multires_index.instance dev ~sigma ~w:2 data);
    (fun dev ~sigma data -> Baselines.Range_encoded.instance dev ~sigma data);
    (fun dev ~sigma data -> Secidx.Alphabet_tree.instance dev ~sigma data);
    (fun dev ~sigma data ->
      Secidx.Alphabet_tree.instance ~schedule:`Doubling dev ~sigma data);
    (fun dev ~sigma data -> Secidx.Static_index.instance dev ~sigma data);
    (fun dev ~sigma data -> Secidx.Append_index.instance dev ~sigma data);
    (fun dev ~sigma data -> Secidx.Dynamic_index.instance dev ~sigma data);
    (fun dev ~sigma data -> Secidx.Buffered_bitmap.instance dev ~sigma data);
  ]

(* Reference answer under the documented clamping rule: bounds are
   clamped to [0, sigma-1]; an empty clamped range answers empty. *)
let clamped_reference ~sigma data ~lo ~hi =
  match Indexing.Common.clamp_range ~sigma ~lo ~hi with
  | None -> Cbitmap.Posting.empty
  | Some (lo, hi) ->
      Workload.Queries.naive_answer
        { Workload.Gen.sigma; data }
        { Workload.Queries.lo; hi }

let prop_all_indexes_agree =
  QCheck.Test.make ~count:40 ~name:"all thirteen indexes agree"
    QCheck.(
      make
        ~print:(fun (sigma, data, lo, hi) ->
          Printf.sprintf "sigma=%d n=%d lo=%d hi=%d" sigma (Array.length data)
            lo hi)
        Gen.(
          (* lo/hi deliberately range outside [0, sigma-1] (and may be
             inverted): every builder must apply the same clamping. *)
          int_range 1 12 >>= fun sigma ->
          int_range 1 120 >>= fun n ->
          array_size (return n) (int_range 0 (sigma - 1)) >>= fun data ->
          int_range (-2) (sigma + 1) >>= fun lo ->
          int_range (-2) (sigma + 1) >>= fun hi ->
          return (sigma, data, lo, hi)))
    (fun (sigma, data, lo, hi) ->
      let reference = clamped_reference ~sigma data ~lo ~hi in
      List.for_all
        (fun build ->
          let inst : Indexing.Instance.t = build (device ()) ~sigma data in
          Cbitmap.Posting.equal
            (Indexing.Answer.to_posting ~n:(Array.length data)
               (inst.Indexing.Instance.query ~lo ~hi))
            reference)
        all_builders)

(* --- input validation --- *)

let raises_invalid f =
  match f () with
  | exception Invalid_argument _ -> true
  | _ -> false

(* Out-of-range and inverted bounds are not errors: every builder
   clamps them with Indexing.Common.clamp_range and answers the
   clamped (possibly empty) range. *)
let test_query_bounds_clamped () =
  let sigma = 4 in
  let data = [| 0; 1; 2; 3; 1; 2 |] in
  List.iter
    (fun build ->
      let inst : Indexing.Instance.t = build (device ()) ~sigma data in
      let name = inst.Indexing.Instance.name in
      List.iter
        (fun (lo, hi) ->
          let got =
            try
              Indexing.Answer.to_posting ~n:(Array.length data)
                (inst.Indexing.Instance.query ~lo ~hi)
            with Invalid_argument m ->
              Alcotest.failf "%s: query (%d,%d) raised %s" name lo hi m
          in
          let want = clamped_reference ~sigma data ~lo ~hi in
          if not (Cbitmap.Posting.equal got want) then
            Alcotest.failf "%s: query (%d,%d) wrong under clamping" name lo hi)
        [ (-1, 0); (0, sigma); (-5, 50); (3, 1); (sigma, sigma + 3); (-4, -2) ])
    all_builders

let test_empty_string_rejected () =
  let dev = device () in
  Alcotest.(check bool) "static" true
    (raises_invalid (fun () -> Secidx.Static_index.build dev ~sigma:4 [||]));
  Alcotest.(check bool) "dynamic" true
    (raises_invalid (fun () -> Secidx.Dynamic_index.build dev ~sigma:4 [||]));
  Alcotest.(check bool) "append" true
    (raises_invalid (fun () -> Secidx.Append_index.build dev ~sigma:4 [||]))

let test_bad_characters_rejected () =
  let dev = device () in
  Alcotest.(check bool) "out of alphabet" true
    (raises_invalid (fun () ->
         Secidx.Static_index.build dev ~sigma:4 [| 0; 7 |]))

let test_dynamic_update_validation () =
  let dev = device () in
  let t = Secidx.Dynamic_index.build dev ~sigma:4 [| 0; 1; 2 |] in
  Alcotest.(check bool) "bad position" true
    (raises_invalid (fun () -> Secidx.Dynamic_index.change t ~pos:9 1));
  Alcotest.(check bool) "bad char" true
    (raises_invalid (fun () -> Secidx.Dynamic_index.change t ~pos:0 9));
  Alcotest.(check bool) "append bad char" true
    (raises_invalid (fun () -> Secidx.Dynamic_index.append t 9));
  (* Changing to the same value is a no-op, not an error. *)
  Secidx.Dynamic_index.change t ~pos:0 0;
  Alcotest.(check int) "unchanged" 0 (Secidx.Dynamic_index.char_at t 0)

let test_buffered_bitmap_validation () =
  let dev = device () in
  let t =
    Secidx.Buffered_bitmap.build ~pos_bits:10 dev
      (Array.make 2 Cbitmap.Posting.empty)
  in
  Alcotest.(check bool) "bad stream" true
    (raises_invalid (fun () ->
         Secidx.Buffered_bitmap.update t Secidx.Buffered_bitmap.Add ~stream:5
           ~pos:1));
  Alcotest.(check bool) "pos too large" true
    (raises_invalid (fun () ->
         Secidx.Buffered_bitmap.update t Secidx.Buffered_bitmap.Add ~stream:0
           ~pos:(1 lsl 12)));
  Alcotest.(check bool) "bad range" true
    (raises_invalid (fun () ->
         ignore (Secidx.Buffered_bitmap.range_query t ~lo:1 ~hi:0)))

let test_device_validation () =
  Alcotest.(check bool) "block bits not multiple of 8" true
    (raises_invalid (fun () ->
         Iosim.Device.create ~block_bits:100 ~mem_bits:0 ()));
  let dev = device () in
  ignore (Iosim.Device.alloc dev 10);
  Alcotest.(check bool) "read past end" true
    (raises_invalid (fun () ->
         ignore (Iosim.Device.read_bits dev ~pos:5 ~width:20)));
  Alcotest.(check bool) "width too large" true
    (raises_invalid (fun () ->
         ignore (Iosim.Device.read_bits dev ~pos:0 ~width:63)))

let test_delete_map_validation () =
  let dev = device () in
  let dm = Secidx.Delete_map.create dev ~capacity:8 in
  Alcotest.(check bool) "delete out of range" true
    (raises_invalid (fun () -> Secidx.Delete_map.delete dm 8));
  Secidx.Delete_map.delete dm 3;
  Alcotest.check_raises "to_internal past live" Not_found (fun () ->
      ignore (Secidx.Delete_map.to_internal dm 7))

(* --- deep interleaving: dynamic index model check with appends,
   changes and deletes mixed --- *)

let prop_dynamic_mixed_ops =
  QCheck.Test.make ~count:50 ~name:"dynamic index: mixed append/change/delete"
    QCheck.(
      make
        ~print:(fun (sigma, init, ops) ->
          Printf.sprintf "sigma=%d n0=%d ops=%d" sigma (List.length init)
            (List.length ops))
        Gen.(
          int_range 2 8 >>= fun sigma ->
          list_size (int_range 1 40) (int_range 0 (sigma - 1)) >>= fun init ->
          list_size (int_range 0 60)
            (triple (int_range 0 2) (int_range 0 99) (int_range 0 (sigma - 1)))
          >>= fun ops -> return (sigma, init, ops)))
    (fun (sigma, init, ops) ->
      let dev = device () in
      let t = Secidx.Dynamic_index.build ~c:3 dev ~sigma (Array.of_list init) in
      let model = ref (Array.of_list init) in
      List.iter
        (fun (kind, pos_seed, ch) ->
          let n = Array.length !model in
          match kind with
          | 0 ->
              Secidx.Dynamic_index.append t ch;
              model := Array.append !model [| ch |]
          | 1 ->
              let pos = pos_seed mod n in
              Secidx.Dynamic_index.change t ~pos ch;
              !model.(pos) <- ch
          | _ ->
              let pos = pos_seed mod n in
              Secidx.Dynamic_index.delete t ~pos;
              !model.(pos) <- -1)
        ops;
      let n = Array.length !model in
      let ok = ref true in
      for lo = 0 to sigma - 1 do
        let hi = sigma - 1 in
        let expected = ref [] in
        for i = n - 1 downto 0 do
          if !model.(i) >= lo && !model.(i) <= hi then expected := i :: !expected
        done;
        let got =
          Indexing.Answer.to_posting ~n (Secidx.Dynamic_index.query t ~lo ~hi)
        in
        if not (Cbitmap.Posting.equal got (Cbitmap.Posting.of_list !expected))
        then ok := false
      done;
      !ok)

(* Exit status of [exe], built in the sibling directory [dir], on
   [args], with its output discarded.  Each binary run here is a
   declared dependency of this test. *)
let exit_code ~dir ~exe args =
  let path =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ Filename.parent_dir_name; dir; exe ]
  in
  Sys.command
    (Printf.sprintf "%s %s >%s 2>&1" (Filename.quote path) args Filename.null)

(* The CLI rejects bad outside input as a usage error (cmdliner's exit
   124) instead of dying on an uncaught exception or answering a range
   it silently clamped. *)
let test_cli_rejects_bad_input () =
  List.iter
    (fun (args, want) ->
      Alcotest.(check int) args want
        (exit_code ~dir:"bin" ~exe:"secidx_cli.exe"
           ("query --length 256 " ^ args)))
    [
      ("--index bogus", 124);
      ("--lo 9 --hi 3", 124);
      ("--sigma 16 --hi 99", 124);
      ("--lo=-1 --hi 3", 124);
      ("--dist bogus", 124);
      ("--sigma 16 --lo 3 --hi 15", 0);
    ]

(* The bench harness rejects an unknown flag or experiment name as a
   usage error (exit 2) before running anything, instead of running
   nothing and exiting 0. *)
let test_bench_rejects_unknown_args () =
  List.iter
    (fun (args, want) ->
      Alcotest.(check int) args want
        (exit_code ~dir:"bench" ~exe:"main.exe" args))
    [ ("--planer --smoke", 2); ("e99", 2); ("e11 e99", 2); ("e11", 0) ]

let suite =
  [
    qcheck prop_all_indexes_agree;
    Alcotest.test_case "query bounds clamped" `Quick
      test_query_bounds_clamped;
    Alcotest.test_case "empty string rejected" `Quick
      test_empty_string_rejected;
    Alcotest.test_case "bad characters rejected" `Quick
      test_bad_characters_rejected;
    Alcotest.test_case "dynamic update validation" `Quick
      test_dynamic_update_validation;
    Alcotest.test_case "buffered bitmap validation" `Quick
      test_buffered_bitmap_validation;
    Alcotest.test_case "device validation" `Quick test_device_validation;
    Alcotest.test_case "delete map validation" `Quick
      test_delete_map_validation;
    qcheck prop_dynamic_mixed_ops;
    Alcotest.test_case "cli rejects bad input" `Quick
      test_cli_rejects_bad_input;
    Alcotest.test_case "bench rejects unknown arguments" `Quick
      test_bench_rejects_unknown_args;
  ]
