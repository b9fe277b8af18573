(* Tests for the dynamic structures: the frozen-boundary view, the
   append-only index (Thm 4/5), the fully dynamic index (Thm 7) and
   the deletion position-translation map (§4). *)

let qcheck = QCheck_alcotest.to_alcotest

let device ?(block_bits = 256) ?(mem_blocks = 128) () =
  Iosim.Device.create ~block_bits ~mem_bits:(mem_blocks * block_bits) ()

let naive_answer ~sigma data lo hi =
  Workload.Queries.naive_answer
    { Workload.Gen.sigma; data }
    { Workload.Queries.lo; hi }

(* --- Frozen view --- *)

let prop_frozen_route_consistent =
  QCheck.Test.make ~count:150 ~name:"frozen routing is a tiling"
    QCheck.(
      pair (int_range 1 12) (list_of_size (Gen.int_range 1 150) (int_range 0 11)))
    (fun (sigma, data_l) ->
      let data = Array.of_list (List.map (fun v -> v mod sigma) data_l) in
      let tree = Secidx.Wbb.build ~c:3 ~sigma data in
      let frozen = Secidx.Frozen.make tree data ~sigma_total:sigma in
      (* Every (char, pos) key routes through a root-to-leaf path whose
         intervals nest. *)
      let ok = ref true in
      for ch = 0 to sigma - 1 do
        List.iter
          (fun pos ->
            let path = Secidx.Frozen.route_path frozen (ch, pos) in
            (match path with
            | [] -> ok := false
            | root :: _ -> if root.Secidx.Wbb.level <> 1 then ok := false);
            let rec nested = function
              | a :: (b :: _ as rest) ->
                  compare (Secidx.Frozen.lo_key frozen a)
                    (Secidx.Frozen.lo_key frozen b)
                  <= 0
                  && compare (Secidx.Frozen.hi_key frozen b)
                       (Secidx.Frozen.hi_key frozen a)
                     <= 0
                  && nested rest
              | _ -> true
            in
            if not (nested path) then ok := false)
          [ 0; 7; 1000 ]
      done;
      !ok)

let prop_frozen_decompose_covers =
  QCheck.Test.make ~count:150 ~name:"frozen decompose covers the key range"
    QCheck.(
      pair (int_range 2 12) (list_of_size (Gen.int_range 1 150) (int_range 0 11)))
    (fun (sigma, data_l) ->
      let data = Array.of_list (List.map (fun v -> v mod sigma) data_l) in
      let tree = Secidx.Wbb.build ~c:3 ~sigma data in
      let frozen = Secidx.Frozen.make tree data ~sigma_total:sigma in
      let lo = 1 and hi = sigma - 1 in
      let canon, partial, _ =
        Secidx.Frozen.decompose frozen ~klo:(lo, 0) ~khi:(hi + 1, 0)
      in
      (* Every build entry with char in [lo,hi] is inside exactly one
         returned node (canonical or partial).  The entries are the
         positions stably sorted by character. *)
      let nodes = canon @ partial in
      let entries = Oracle.Wbb.entries data in
      let count_for entry_idx =
        let key = (data.(entries.(entry_idx)), entries.(entry_idx)) in
        List.length
          (List.filter
             (fun v ->
               compare (Secidx.Frozen.lo_key frozen v) key <= 0
               && compare key (Secidx.Frozen.hi_key frozen v) < 0)
             nodes)
      in
      let ok = ref true in
      for e = 0 to tree.Secidx.Wbb.n - 1 do
        let c = data.(entries.(e)) in
        let inside = c >= lo && c <= hi in
        let cnt = count_for e in
        if inside && cnt <> 1 then ok := false;
        if (not inside) && cnt > 1 then ok := false
      done;
      !ok)

(* Each node's frozen boundaries are the keys of the entries at its
   ends, taken from the sorted entries: the leftmost path starts at
   (0, 0), and an end past the last entry is (sigma_total, 0). *)
let prop_frozen_keys_are_entry_keys =
  QCheck.Test.make ~count:150 ~name:"frozen boundaries = sorted-entry keys"
    QCheck.(
      triple (int_range 1 12) (oneofl [ 2; 3; 8 ])
        (list_of_size (Gen.int_range 1 300) (int_range 0 11)))
    (fun (sigma, c, data_l) ->
      let data = Array.of_list (List.map (fun v -> v mod sigma) data_l) in
      let tree = Secidx.Wbb.build ~c ~sigma data in
      let frozen = Secidx.Frozen.make tree data ~sigma_total:(sigma + 1) in
      let entries = Oracle.Wbb.entries data in
      let key i =
        if i = Array.length data then (sigma + 1, 0)
        else (data.(entries.(i)), entries.(i))
      in
      Array.for_all
        (fun (v : Secidx.Wbb.node) ->
          Secidx.Frozen.lo_key frozen v
          = (if v.Secidx.Wbb.s = 0 then (0, 0) else key v.Secidx.Wbb.s)
          && Secidx.Frozen.hi_key frozen v = key v.Secidx.Wbb.e)
        tree.Secidx.Wbb.nodes)

(* --- Append index --- *)

let append_scenario ~buffered (sigma, initial, appends, lo, hi) =
  let dev = device () in
  let t =
    Secidx.Append_index.build ~c:4 ~buffered dev ~sigma (Array.of_list initial)
  in
  List.iter (fun ch -> Secidx.Append_index.append t ch) appends;
  let data = Array.of_list (initial @ appends) in
  let naive = naive_answer ~sigma data lo hi in
  let answer = Secidx.Append_index.query t ~lo ~hi in
  Cbitmap.Posting.equal
    (Indexing.Answer.to_posting ~n:(Array.length data) answer)
    naive

let append_gen =
  QCheck.make
    ~print:(fun (sigma, initial, appends, lo, hi) ->
      Printf.sprintf "sigma=%d n0=%d appends=%d lo=%d hi=%d init=[%s] app=[%s]"
        sigma (List.length initial) (List.length appends) lo hi
        (String.concat ";" (List.map string_of_int initial))
        (String.concat ";" (List.map string_of_int appends)))
    QCheck.Gen.(
      int_range 1 12 >>= fun sigma ->
      list_size (int_range 1 80) (int_range 0 (sigma - 1)) >>= fun initial ->
      list_size (int_range 0 200) (int_range 0 (sigma - 1)) >>= fun appends ->
      int_range 0 (sigma - 1) >>= fun a ->
      int_range 0 (sigma - 1) >>= fun b ->
      return (sigma, initial, appends, min a b, max a b))

let prop_append_matches_naive =
  QCheck.Test.make ~count:100 ~name:"append index matches naive" append_gen
    (append_scenario ~buffered:false)

let prop_append_buffered_matches_naive =
  QCheck.Test.make ~count:100 ~name:"buffered append index matches naive"
    append_gen
    (append_scenario ~buffered:true)

let test_append_triggers_rebuild () =
  let dev = device () in
  let t = Secidx.Append_index.build dev ~sigma:4 [| 0; 1; 2; 3 |] in
  for i = 0 to 99 do
    Secidx.Append_index.append t (i mod 4)
  done;
  Alcotest.(check bool) "rebuilt" true (Secidx.Append_index.rebuilds t >= 3);
  Alcotest.(check int) "length" 104 (Secidx.Append_index.length t)

let test_append_amortized_io () =
  (* Unbuffered appends cost O(lg lg n) I/Os each (one chain-tail
     touch per materialized level).  Buffering pays off when the
     buffer holds many records per tile: large blocks (b = B/lg n
     records per buffer), modest alphabet, small pool. *)
  let g = Workload.Gen.uniform ~seed:21 ~n:4096 ~sigma:16 in
  let run buffered =
    let dev = device ~block_bits:8192 ~mem_blocks:8 () in
    let t =
      Secidx.Append_index.build ~buffered dev ~sigma:16 g.Workload.Gen.data
    in
    Iosim.Device.reset_stats dev;
    (* Stay below the doubling threshold: no rebuild in this window. *)
    for i = 0 to 999 do
      Secidx.Append_index.append t (i mod 16)
    done;
    Alcotest.(check int) "no rebuild in window" 0 (Secidx.Append_index.rebuilds t);
    float_of_int (Iosim.Stats.ios (Iosim.Device.stats dev)) /. 1000.0
  in
  let unbuffered = run false and buffered = run true in
  if unbuffered > 25.0 then
    Alcotest.failf "unbuffered append too expensive: %.2f I/Os" unbuffered;
  if not (buffered < unbuffered /. 2.0) then
    Alcotest.failf "buffering did not help: %.2f vs %.2f" buffered unbuffered

(* --- Dynamic index --- *)

let dyn_gen =
  QCheck.make
    ~print:(fun (sigma, initial, changes) ->
      Printf.sprintf "sigma=%d n=%d changes=[%s]" sigma (List.length initial)
        (String.concat ";"
           (List.map (fun (p, c) -> Printf.sprintf "%d->%d" p c) changes)))
    QCheck.Gen.(
      int_range 2 10 >>= fun sigma ->
      list_size (int_range 1 100) (int_range 0 (sigma - 1)) >>= fun initial ->
      let n = List.length initial in
      list_size (int_range 0 120)
        (pair (int_range 0 (n - 1)) (int_range 0 (sigma - 1)))
      >>= fun changes -> return (sigma, initial, changes))

let prop_dynamic_matches_naive =
  QCheck.Test.make ~count:100 ~name:"dynamic index matches naive after changes"
    dyn_gen
    (fun (sigma, initial, changes) ->
      let dev = device () in
      let data = Array.of_list initial in
      let t = Secidx.Dynamic_index.build ~c:3 dev ~sigma data in
      let reference = Array.copy data in
      List.iter
        (fun (pos, ch) ->
          Secidx.Dynamic_index.change t ~pos ch;
          reference.(pos) <- ch)
        changes;
      let ok = ref true in
      let n = Array.length data in
      List.iter
        (fun (lo, hi) ->
          if lo <= hi && hi < sigma then begin
            let naive = naive_answer ~sigma reference lo hi in
            let answer = Secidx.Dynamic_index.query t ~lo ~hi in
            if
              not
                (Cbitmap.Posting.equal
                   (Indexing.Answer.to_posting ~n answer)
                   naive)
            then ok := false
          end)
        [ (0, sigma - 1); (0, 0); (1, sigma - 2); (sigma / 2, sigma - 1) ];
      !ok)

let prop_dynamic_delete =
  QCheck.Test.make ~count:75 ~name:"dynamic index deletions"
    dyn_gen
    (fun (sigma, initial, changes) ->
      let dev = device () in
      let data = Array.of_list initial in
      let t = Secidx.Dynamic_index.build ~c:3 dev ~sigma data in
      let reference = Array.copy data in
      (* Interpret changes as deletions of the positions. *)
      List.iter
        (fun (pos, _) ->
          Secidx.Dynamic_index.delete t ~pos;
          reference.(pos) <- -1)
        changes;
      let naive =
        Cbitmap.Posting.of_list
          (List.filteri (fun _ c -> c >= 0)
             (Array.to_list (Array.mapi (fun i c -> if c >= 0 then i else -1) reference))
          |> List.filter (fun i -> i >= 0))
      in
      let answer = Secidx.Dynamic_index.query t ~lo:0 ~hi:(sigma - 1) in
      Cbitmap.Posting.equal
        (Indexing.Answer.to_posting ~n:(Array.length data) answer)
        naive)

let test_dynamic_append_and_change () =
  let dev = device () in
  let t = Secidx.Dynamic_index.build dev ~sigma:8 [| 0; 1; 2 |] in
  Secidx.Dynamic_index.append t 5;
  Secidx.Dynamic_index.append t 5;
  Secidx.Dynamic_index.change t ~pos:0 5;
  let p =
    Indexing.Answer.to_posting ~n:5 (Secidx.Dynamic_index.query t ~lo:5 ~hi:5)
  in
  Alcotest.(check (list int)) "positions of 5" [ 0; 3; 4 ]
    (Cbitmap.Posting.to_list p)

let test_dynamic_rebuild_trigger () =
  let dev = device () in
  let g = Workload.Gen.uniform ~seed:22 ~n:200 ~sigma:8 in
  let t = Secidx.Dynamic_index.build dev ~sigma:8 g.Workload.Gen.data in
  for i = 0 to 199 do
    Secidx.Dynamic_index.change t ~pos:(i mod 200) ((i * 3) mod 8)
  done;
  Alcotest.(check bool) "rebuilt at least once" true
    (Secidx.Dynamic_index.rebuilds t >= 1)

let test_dynamic_update_io_buffered () =
  (* Updates must be much cheaper than a full query (the buffering
     claim of Thm 7). *)
  let g = Workload.Gen.uniform ~seed:23 ~n:8192 ~sigma:64 in
  let dev = device ~block_bits:1024 ~mem_blocks:16 () in
  let t = Secidx.Dynamic_index.build dev ~sigma:64 g.Workload.Gen.data in
  Iosim.Device.reset_stats dev;
  let rng = Hashing.Universal.Rng.create ~seed:9 in
  let updates = 1000 in
  for _ = 1 to updates do
    Secidx.Dynamic_index.change t
      ~pos:(Hashing.Universal.Rng.below rng 8192)
      (Hashing.Universal.Rng.below rng 64)
  done;
  let per_update =
    float_of_int (Iosim.Stats.ios (Iosim.Device.stats dev))
    /. float_of_int updates
  in
  if per_update > 30.0 then
    Alcotest.failf "dynamic update too expensive: %.2f I/Os" per_update

(* --- Delete map --- *)

let prop_delete_map_translation =
  QCheck.Test.make ~count:150 ~name:"delete map translations"
    QCheck.(pair (int_range 1 200) (list (int_range 0 199)))
    (fun (capacity, deletions) ->
      let dev = device () in
      let dm = Secidx.Delete_map.create dev ~capacity in
      let deleted = Array.make capacity false in
      List.iter
        (fun p ->
          if p < capacity then begin
            Secidx.Delete_map.delete dm p;
            deleted.(p) <- true
          end)
        deletions;
      (* Reference translation. *)
      let live = ref [] in
      for i = capacity - 1 downto 0 do
        if not deleted.(i) then live := i :: !live
      done;
      let live = Array.of_list !live in
      let ok = ref true in
      if Secidx.Delete_map.live_count dm <> Array.length live then ok := false;
      Array.iteri
        (fun k i ->
          if Secidx.Delete_map.to_internal dm k <> i then ok := false;
          match Secidx.Delete_map.to_external dm i with
          | Some k' -> if k' <> k then ok := false
          | None -> ok := false)
        live;
      for i = 0 to capacity - 1 do
        if deleted.(i) && Secidx.Delete_map.to_external dm i <> None then
          ok := false
      done;
      !ok)

let test_delete_map_rebuild_flag () =
  let dev = device () in
  let dm = Secidx.Delete_map.create dev ~capacity:10 in
  for i = 0 to 5 do
    Secidx.Delete_map.delete dm i
  done;
  Alcotest.(check bool) "needs rebuild" true (Secidx.Delete_map.needs_rebuild dm);
  Alcotest.(check int) "deleted" 6 (Secidx.Delete_map.deleted_count dm)

let test_delete_map_idempotent () =
  let dev = device () in
  let dm = Secidx.Delete_map.create dev ~capacity:10 in
  Secidx.Delete_map.delete dm 3;
  Secidx.Delete_map.delete dm 3;
  Alcotest.(check int) "deleted once" 1 (Secidx.Delete_map.deleted_count dm)

(* --- Count-array repair after updates --- *)

(* One bit of an updated index's per-character count array is flipped
   by a raw device write: the scrub must find it, the repair must
   restore [expect] (the counts of the live string the device copy
   holds), and [verified_query] must answer [lo..hi] naively over
   [live] (deleted positions hold [sigma], which no query matches). *)
let check_count_repair what inst counts ~expect ~live ~sigma ~lo ~hi =
  let dev = inst.Indexing.Instance.device in
  let integrity = Option.get inst.Indexing.Instance.integrity in
  (* The first scrub reseals the frames the updates invalidated. *)
  Alcotest.(check int) (what ^ ": clean after updates") 0
    (integrity.Indexing.Integrity.scrub ());
  let region = Secidx.Char_counts.region counts in
  let width = region.Iosim.Device.len / Array.length expect in
  let pos = region.Iosim.Device.off + ((hi + 1) * width) - 1 in
  Iosim.Device.write_bits dev ~pos ~width:1
    (1 - Iosim.Device.read_bits dev ~pos ~width:1);
  Alcotest.(check int) (what ^ ": scrub finds the flip") 1
    (integrity.Indexing.Integrity.scrub ());
  (match Indexing.Instance.verified_query inst ~lo ~hi with
  | Indexing.Instance.Repaired (a, _) ->
      Alcotest.(check bool) (what ^ ": repaired answer is naive") true
        (Cbitmap.Posting.equal
           (Indexing.Answer.to_posting ~n:(Array.length live) a)
           (naive_answer ~sigma live lo hi))
  | Indexing.Instance.Ok _ -> Alcotest.failf "%s: flip not repaired" what
  | Indexing.Instance.Corrupt msg -> Alcotest.failf "%s: %s" what msg);
  Alcotest.(check (array int)) (what ^ ": counts restored") expect
    (Array.init (Array.length expect) (Secidx.Char_counts.get counts))

let test_count_repair () =
  let sigma = 8 in
  let state = ref 5 in
  let next m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  let data = Array.init 300 (fun _ -> next sigma) in
  let counts_of ~sigma x = Cbitmap.Entropy.counts ~sigma x in
  List.iter
    (fun buffered ->
      let what = if buffered then "buffered append" else "append" in
      let t = Secidx.Append_index.build ~buffered (device ()) ~sigma data in
      let appended = Array.init 53 (fun _ -> next sigma) in
      Array.iter (Secidx.Append_index.append t) appended;
      let live = Array.append data appended in
      let counts = Secidx.Append_index.counts t in
      (* The device copy lags the string by the appends still in the
         root buffer: the last [pending] positions. *)
      let stored =
        Array.fold_left ( + ) 0
          (Array.init sigma (Secidx.Char_counts.get counts))
      in
      let pending = Array.length live - stored in
      Alcotest.(check bool) (what ^ ": appends pending") buffered (pending > 0);
      check_count_repair what
        (Secidx.Append_index.instance_of t)
        counts
        ~expect:(counts_of ~sigma (Array.sub live 0 stored))
        ~live ~sigma ~lo:1 ~hi:3)
    [ false; true ];
  let t = Secidx.Dynamic_index.build (device ()) ~sigma data in
  let live = ref (Array.copy data) in
  for i = 1 to 30 do
    let pos = next (Secidx.Dynamic_index.length t) in
    match i mod 3 with
    | 0 ->
        Secidx.Dynamic_index.delete t ~pos;
        !live.(pos) <- sigma
    | 1 ->
        let ch = next sigma in
        Secidx.Dynamic_index.change t ~pos ch;
        !live.(pos) <- ch
    | _ ->
        let ch = next sigma in
        Secidx.Dynamic_index.append t ch;
        live := Array.append !live [| ch |]
  done;
  Alcotest.(check int) "dynamic: no rebuild" 0 (Secidx.Dynamic_index.rebuilds t);
  check_count_repair "dynamic"
    (Secidx.Dynamic_index.instance_of t)
    (Secidx.Dynamic_index.counts t)
    ~expect:(counts_of ~sigma:(sigma + 1) !live)
    ~live:!live ~sigma ~lo:2 ~hi:5

let suite =
  [
    qcheck prop_frozen_route_consistent;
    qcheck prop_frozen_decompose_covers;
    qcheck prop_frozen_keys_are_entry_keys;
    qcheck prop_append_matches_naive;
    qcheck prop_append_buffered_matches_naive;
    Alcotest.test_case "append triggers rebuild" `Quick
      test_append_triggers_rebuild;
    Alcotest.test_case "append amortized I/O" `Quick test_append_amortized_io;
    qcheck prop_dynamic_matches_naive;
    qcheck prop_dynamic_delete;
    Alcotest.test_case "dynamic append+change" `Quick
      test_dynamic_append_and_change;
    Alcotest.test_case "dynamic rebuild trigger" `Quick
      test_dynamic_rebuild_trigger;
    Alcotest.test_case "dynamic update I/O buffered" `Quick
      test_dynamic_update_io_buffered;
    Alcotest.test_case "count array repaired after updates" `Quick
      test_count_repair;
    qcheck prop_delete_map_translation;
    Alcotest.test_case "delete map rebuild flag" `Quick
      test_delete_map_rebuild_flag;
    Alcotest.test_case "delete map idempotent" `Quick
      test_delete_map_idempotent;
  ]
