(* PR 8: crash-safe write path — differential and crash-point tests.

   The oracle is a plain mutable int-array model of the string
   (sigma = deleted).  Every property is phrased against it:

   - differential: random update/query interleavings, answers equal
     the model's, for several (threshold, fanout, payload) configs;
   - crash matrix: kill the store at every k-th block write (torn and
     clean, on either device), recover from the surviving WAL, and
     require the recovered history to be a prefix of the issued ops
     no shorter than the acknowledged prefix, with oracle-exact
     answers — no lost acks, no silent wrong answers;
   - double crash: a second kill during recovery loses nothing
     because recovery never writes the old WAL;
   - idempotent replay: recovering twice yields identical stores;
   - degraded compaction: an exhausted retry budget leaves an
     overfull level that still answers correctly and heals once the
     fault clears;
   - set-algebra reference: a store and its {!Oracle.Wal_store} twin
     answer, count and write alike after every batch;
   - fault hygiene: a query or a compaction that a transient read
     fault interrupts leaves no state behind;
   - allocation: a warm query allocates little beyond its answer. *)

module Device = Iosim.Device
module Fault = Iosim.Fault
module Posting = Cbitmap.Posting

let block_bits = 512
let qcheck = QCheck_alcotest.to_alcotest

let fresh_device ?(mem_blocks = 0) () =
  Device.create ~block_bits ~mem_bits:(mem_blocks * block_bits) ()

(* --- oracle model --------------------------------------------------- *)

type model = { mutable chars : int array; mutable len : int; sigma : int }

let model_create ~sigma data =
  let chars = Array.make (max 16 (2 * Array.length data)) (-1) in
  Array.blit data 0 chars 0 (Array.length data);
  { chars; len = Array.length data; sigma }

let model_apply m op =
  match op with
  | Wal.Op.Set { pos; ch } -> m.chars.(pos) <- ch
  | Wal.Op.Delete { pos } -> m.chars.(pos) <- m.sigma
  | Wal.Op.Append { ch } ->
      if m.len = Array.length m.chars then begin
        let grown = Array.make (2 * m.len) (-1) in
        Array.blit m.chars 0 grown 0 m.len;
        m.chars <- grown
      end;
      m.chars.(m.len) <- ch;
      m.len <- m.len + 1

let model_query m ~lo ~hi =
  let acc = ref [] in
  for pos = m.len - 1 downto 0 do
    if m.chars.(pos) >= lo && m.chars.(pos) <= hi then acc := pos :: !acc
  done;
  Posting.of_list !acc

let random_op rng m =
  let sigma = m.sigma in
  if m.len = 0 then Wal.Op.Append { ch = Fault.Rng.int rng sigma }
  else
    match Fault.Rng.int rng 4 with
    | 0 | 1 ->
        Wal.Op.Set { pos = Fault.Rng.int rng m.len; ch = Fault.Rng.int rng sigma }
    | 2 -> Wal.Op.Append { ch = Fault.Rng.int rng sigma }
    | _ -> Wal.Op.Delete { pos = Fault.Rng.int rng m.len }

let check_answers ?(msg = "query") store m =
  let sigma = m.sigma in
  for lo = 0 to sigma - 1 do
    for hi = lo to sigma - 1 do
      let got =
        Indexing.Answer.to_posting ~n:m.len (Wal.Store.query store ~lo ~hi)
      in
      let want = model_query m ~lo ~hi in
      if not (Posting.equal got want) then
        Alcotest.failf "%s: [%d,%d] mismatch" msg lo hi
    done
  done

(* --- op codec ------------------------------------------------------- *)

let test_op_codec () =
  let rng = Fault.Rng.create 11 in
  for seq = 0 to 199 do
    let op =
      match Fault.Rng.int rng 3 with
      | 0 ->
          Wal.Op.Set
            { pos = Fault.Rng.int rng 1_000_000; ch = Fault.Rng.int rng 65536 }
      | 1 -> Wal.Op.Append { ch = Fault.Rng.int rng 65536 }
      | _ -> Wal.Op.Delete { pos = Fault.Rng.int rng 1_000_000 }
    in
    let buf = Bitio.Bitbuf.create () in
    Wal.Op.encode buf ~seq op;
    Alcotest.(check int) "record width" Wal.Op.record_bits
      (Bitio.Bitbuf.length buf);
    match Wal.Op.decode buf ~off:0 with
    | Some (s, op') ->
        Alcotest.(check int) "seq" seq s;
        Alcotest.(check bool) "op" true (Wal.Op.equal op op')
    | None -> Alcotest.fail "decode failed"
  done

let test_log_scan_truncates () =
  let dev = fresh_device () in
  let log = Wal.Log.create dev in
  let ops =
    List.init 40 (fun i ->
        if i mod 2 = 0 then Wal.Op.Set { pos = i; ch = i mod 7 }
        else Wal.Op.Append { ch = i mod 7 })
  in
  List.iteri (fun i op -> if i mod 4 = 0 then Wal.Log.append log [ op ]) ops;
  Wal.Log.append log (List.filteri (fun i _ -> i mod 4 <> 0) ops);
  (* records are order-scrambled by the grouping above; scan returns
     them in logged order *)
  let logged, stop = Wal.Log.scan dev in
  Alcotest.(check int) "all records" 40 (List.length logged);
  Alcotest.(check int) "stop at end" (40 * Wal.Op.record_bits) stop;
  (* corrupt one bit inside record 25: the scan must keep 0..24 *)
  let pos = (25 * Wal.Op.record_bits) + 57 in
  let bit = Device.read_bits dev ~pos ~width:1 in
  Device.write_bits dev ~pos ~width:1 (1 - bit);
  let survived, stop = Wal.Log.scan dev in
  Alcotest.(check int) "truncated" 25 (List.length survived);
  Alcotest.(check int) "stop offset" (25 * Wal.Op.record_bits) stop;
  List.iteri
    (fun i op ->
      Alcotest.(check bool) "prefix op" true
        (Wal.Op.equal (List.nth logged i) op))
    survived

(* --- differential --------------------------------------------------- *)

let test_differential () =
  let configs =
    [
      { Wal.Store.default_config with flush_threshold = 7; fanout = 2 };
      { Wal.Store.default_config with flush_threshold = 16; fanout = 3 };
      {
        Wal.Store.default_config with
        flush_threshold = 5;
        fanout = 2;
        payload = Wal.Store.Hybrid { chunk = 64 };
      };
    ]
  in
  List.iteri
    (fun ci config ->
      let sigma = 8 in
      let rng = Fault.Rng.create (91 + ci) in
      let data = Array.init 60 (fun _ -> Fault.Rng.int rng sigma) in
      let m = model_create ~sigma data in
      let store = Wal.Store.create config ~sigma ~data in
      for round = 0 to 24 do
        let k = 1 + Fault.Rng.int rng 9 in
        let ops = ref [] in
        for _ = 1 to k do
          let op = random_op rng m in
          model_apply m op;
          ops := op :: !ops
        done;
        Wal.Store.update_batch store (List.rev !ops);
        Alcotest.(check int) "length" m.len (Wal.Store.n store);
        if round mod 5 = 0 then check_answers ~msg:"differential" store m
      done;
      check_answers ~msg:"differential (final)" store m;
      for pos = 0 to m.len - 1 do
        Alcotest.(check int) "char_at" m.chars.(pos) (Wal.Store.char_at store pos)
      done;
      Alcotest.(check bool) "compacted" true (Wal.Store.compactions store > 0);
      let logged, _ = Wal.Log.scan (Wal.Store.wal_device store) in
      Alcotest.(check int) "acked = logged" (Wal.Store.acked store)
        (List.length logged))
    configs

(* --- crash-point matrix --------------------------------------------- *)

(* One crash trial: issue [batches] against a store whose [victim]
   device is armed to die at write [k]; on the kill, recover from the
   surviving WAL and check the prefix/ack contract and all answers.
   Returns true when the kill actually fired. *)
let crash_trial ~config ~sigma ~data ~batches ~victim ~k ~torn =
  let index_device = fresh_device () in
  let wal_device = fresh_device () in
  let store = Wal.Store.create ~wal_device ~index_device config ~sigma ~data in
  let plan = Fault.create () in
  let dev = match victim with `Wal -> wal_device | `Index -> index_device in
  Device.set_fault dev plan;
  Fault.arm_crash plan ~after_writes:k ~torn;
  let issued = ref [] in
  let acked = ref 0 in
  let crashed = ref false in
  (try
     List.iter
       (fun batch ->
         issued := !issued @ batch;
         Wal.Store.update_batch store batch;
         acked := List.length !issued)
       batches
   with Secidx_error.Crashed _ -> crashed := true);
  if !crashed then begin
    Device.clear_fault dev;
    let recovered, replayed =
      Wal.Recovery.recover config ~sigma ~data wal_device
    in
    let issued = Array.of_list !issued in
    if replayed < !acked then
      Alcotest.failf "lost acknowledged ops: acked %d, replayed %d" !acked
        replayed;
    if replayed > Array.length issued then
      Alcotest.failf "replayed %d > issued %d" replayed (Array.length issued);
    let prefix, _ = Wal.Recovery.scan wal_device in
    List.iteri
      (fun i op ->
        if not (Wal.Op.equal issued.(i) op) then
          Alcotest.failf "recovered op %d is not the issued op" i)
      prefix;
    let m = model_create ~sigma data in
    Array.iteri (fun i op -> if i < replayed then model_apply m op) issued;
    check_answers ~msg:"post-recovery" recovered m
  end
  else
    Alcotest.(check bool) "no kill => no pending fire" false
      (Fault.pending_crash plan && k <= Fault.blocks_written_seen plan);
  !crashed

let crash_workload () =
  let sigma = 8 in
  let rng = Fault.Rng.create 2024 in
  let data = Array.init 48 (fun _ -> Fault.Rng.int rng sigma) in
  let m = model_create ~sigma data in
  let batches =
    List.init 20 (fun _ ->
        List.init
          (1 + Fault.Rng.int rng 6)
          (fun _ ->
            let op = random_op rng m in
            model_apply m op;
            op))
  in
  (data, batches)

let test_crash_matrix () =
  let config = { Wal.Store.default_config with flush_threshold = 8 } in
  let sigma = 8 in
  let data, batches = crash_workload () in
  (* dry run with an idle plan per device to size the sweep *)
  let writes_on victim =
    let index_device = fresh_device () in
    let wal_device = fresh_device () in
    let store =
      Wal.Store.create ~wal_device ~index_device config ~sigma ~data
    in
    let plan = Fault.create () in
    Device.set_fault
      (match victim with `Wal -> wal_device | `Index -> index_device)
      plan;
    List.iter (Wal.Store.update_batch store) batches;
    Fault.blocks_written_seen plan
  in
  let fired = ref 0 in
  List.iter
    (fun victim ->
      let total = writes_on victim in
      Alcotest.(check bool) "dry run writes" true (total > 0);
      let stride = max 1 (total / 24) in
      let k = ref 1 in
      while !k <= total do
        List.iter
          (fun torn ->
            if crash_trial ~config ~sigma ~data ~batches ~victim ~k:!k ~torn
            then incr fired)
          [ false; true ];
        k := !k + stride
      done)
    [ `Wal; `Index ];
  Alcotest.(check bool) "kills fired" true (!fired >= 40)

let test_double_crash () =
  let config = { Wal.Store.default_config with flush_threshold = 8 } in
  let sigma = 8 in
  let data, batches = crash_workload () in
  (* first crash: mid-flush on the index device *)
  let index_device = fresh_device () in
  let wal_device = fresh_device () in
  let store = Wal.Store.create ~wal_device ~index_device config ~sigma ~data in
  let plan = Fault.create () in
  Device.set_fault index_device plan;
  Fault.arm_crash plan ~after_writes:30 ~torn:true;
  let issued = ref [] in
  let acked = ref 0 in
  let crashed = ref false in
  (try
     List.iter
       (fun b ->
         issued := !issued @ b;
         Wal.Store.update_batch store b;
         acked := List.length !issued)
       batches
   with Secidx_error.Crashed _ -> crashed := true);
  Alcotest.(check bool) "first crash fired" true !crashed;
  let survivors, _ = Wal.Recovery.scan wal_device in
  (* second crash: during recovery's replay (fresh devices armed) *)
  let plan2 = Fault.create () in
  let wal2 = fresh_device () in
  Device.set_fault wal2 plan2;
  Fault.arm_crash plan2 ~after_writes:2 ~torn:false;
  (try
     ignore (Wal.Recovery.recover ~wal_device:wal2 config ~sigma ~data wal_device)
   with Secidx_error.Crashed _ -> ());
  (* the old WAL is untouched: recovery from it still works in full *)
  let after, _ = Wal.Recovery.scan wal_device in
  Alcotest.(check int) "old WAL intact" (List.length survivors)
    (List.length after);
  let recovered, replayed = Wal.Recovery.recover config ~sigma ~data wal_device in
  Alcotest.(check int) "full prefix replayed" (List.length survivors) replayed;
  Alcotest.(check bool) "not below acks" true (replayed >= !acked);
  let m = model_create ~sigma data in
  List.iteri
    (fun i op -> if i < replayed then model_apply m op)
    !issued;
  check_answers ~msg:"after double crash" recovered m

let test_idempotent_replay () =
  let config = { Wal.Store.default_config with flush_threshold = 6 } in
  let sigma = 8 in
  let data, batches = crash_workload () in
  let store = Wal.Store.create config ~sigma ~data in
  List.iter (Wal.Store.update_batch store) batches;
  let wal = Wal.Store.wal_device store in
  let s1, r1 = Wal.Recovery.recover config ~sigma ~data wal in
  let s2, r2 = Wal.Recovery.recover config ~sigma ~data wal in
  Alcotest.(check int) "same replay count" r1 r2;
  Alcotest.(check (list int)) "same levels" (Wal.Store.level_counts s1)
    (Wal.Store.level_counts s2);
  Alcotest.(check int) "same size" (Wal.Store.size_bits s1)
    (Wal.Store.size_bits s2);
  Alcotest.(check int) "same length" (Wal.Store.n s1) (Wal.Store.n s2);
  for lo = 0 to sigma - 1 do
    let a1 =
      Indexing.Answer.to_posting ~n:(Wal.Store.n s1)
        (Wal.Store.query s1 ~lo ~hi:lo)
    in
    let a2 =
      Indexing.Answer.to_posting ~n:(Wal.Store.n s2)
        (Wal.Store.query s2 ~lo ~hi:lo)
    in
    Alcotest.(check bool) "same answers" true (Posting.equal a1 a2)
  done;
  (* and the rebuilt stores agree with the original live store *)
  let m = model_create ~sigma data in
  List.iter (List.iter (model_apply m)) batches;
  check_answers ~msg:"replayed store" s1 m;
  check_answers ~msg:"live store" store m

(* --- degraded compaction -------------------------------------------- *)

let test_degraded_compaction () =
  let config =
    { Wal.Store.default_config with flush_threshold = 4; retry_attempts = 2 }
  in
  let sigma = 8 in
  let rng = Fault.Rng.create 7 in
  let data = Array.init 40 (fun _ -> Fault.Rng.int rng sigma) in
  let index_device = fresh_device () in
  let store = Wal.Store.create ~index_device config ~sigma ~data in
  let m = model_create ~sigma data in
  let push k =
    for _ = 1 to k do
      let op = random_op rng m in
      model_apply m op;
      Wal.Store.update store op
    done
  in
  (* fill level 0 to one run short of a compaction *)
  push 4;
  Alcotest.(check int) "no compaction yet" 0 (Wal.Store.compactions store);
  (* every cache-miss read now fails [retry_attempts] times: the next
     compaction exhausts its budget and degrades *)
  let plan = Fault.create () in
  Device.set_fault index_device plan;
  let used = Device.used_bits index_device / block_bits in
  for block = 0 to used do
    Fault.arm_transient_read plan ~block ~failures:config.retry_attempts
  done;
  push 4;
  Alcotest.(check int) "degraded" 1 (Wal.Store.degraded store);
  Alcotest.(check bool) "pending" true (Wal.Store.pending_compaction store);
  Alcotest.(check int) "no compaction done" 0 (Wal.Store.compactions store);
  let backoff =
    (Device.stats index_device).Iosim.Stats.backoff_ios
  in
  Alcotest.(check bool) "backoff charged" true (backoff > 0);
  (* degraded, not wrong: answers still exact (transients retried by
     the read path's own budget are gone now) *)
  Device.clear_fault index_device;
  check_answers ~msg:"degraded" store m;
  (* fault cleared: the next flush heals the overfull level *)
  push 4;
  Alcotest.(check bool) "healed" true (Wal.Store.compactions store >= 1);
  Alcotest.(check bool) "not pending" false (Wal.Store.pending_compaction store);
  check_answers ~msg:"healed" store m

(* --- set-algebra reference ------------------------------------------ *)

(* A random script: the configuration and the string from the case,
   the operations drawn from [seed] against the length each one sees. *)
type twin_case = {
  seed : int;
  sigma : int;
  n0 : int;
  fanout : int;
  threshold : int;
  chunk : int option;  (* [Hybrid { chunk }], or [Gap] *)
  batches : int;
}

let gen_twin_case =
  let open QCheck.Gen in
  int_bound 1_000_000 >>= fun seed ->
  int_range 2 12 >>= fun sigma ->
  int_range 0 80 >>= fun n0 ->
  int_range 2 4 >>= fun fanout ->
  int_range 3 16 >>= fun threshold ->
  opt (int_range 4 64) >>= fun chunk ->
  int_range 1 30 >>= fun batches ->
  return { seed; sigma; n0; fanout; threshold; chunk; batches }

let print_twin_case c =
  Printf.sprintf "seed=%d sigma=%d n0=%d fanout=%d threshold=%d %s batches=%d"
    c.seed c.sigma c.n0 c.fanout c.threshold
    (match c.chunk with Some k -> Printf.sprintf "hybrid/%d" k | None -> "gap")
    c.batches

let device_bytes_equal a b =
  Device.used_bits a = Device.used_bits b
  && Device.raw_crc32 a ~pos:0 ~len:(Device.used_bits a)
     = Device.raw_crc32 b ~pos:0 ~len:(Device.used_bits b)

(* After every batch and its query, the two index devices hold the
   same bytes (so every flushed and merged run is bit-identical) and
   every [Stats] field agrees. *)
let prop_twin_reference =
  QCheck.Test.make ~count:100 ~long_factor:10
    ~name:"store = set-algebra reference (answers, stats, bytes)"
    (QCheck.make ~print:print_twin_case gen_twin_case)
    (fun c ->
      let rng = Fault.Rng.create c.seed in
      let data = Array.init c.n0 (fun _ -> Fault.Rng.int rng c.sigma) in
      let config =
        {
          Wal.Store.default_config with
          flush_threshold = c.threshold;
          fanout = c.fanout;
          payload =
            (match c.chunk with
            | Some chunk -> Wal.Store.Hybrid { chunk }
            | None -> Wal.Store.Gap);
        }
      in
      let dev_s = fresh_device ~mem_blocks:4 ()
      and dev_r = fresh_device ~mem_blocks:4 () in
      let store = Wal.Store.create ~index_device:dev_s config ~sigma:c.sigma ~data in
      let twin =
        Oracle.Wal_store.create ~index_device:dev_r config ~sigma:c.sigma ~data
      in
      let m = model_create ~sigma:c.sigma data in
      let ok = ref true in
      for _ = 1 to c.batches do
        let ops =
          List.init
            (1 + Fault.Rng.int rng 10)
            (fun _ ->
              let op = random_op rng m in
              model_apply m op;
              op)
        in
        Wal.Store.update_batch store ops;
        Oracle.Wal_store.update_batch twin ops;
        let lo = Fault.Rng.int rng (c.sigma + 2) - 1 in
        let hi = lo + Fault.Rng.int rng c.sigma in
        let got =
          Indexing.Answer.to_posting ~n:m.len (Wal.Store.query store ~lo ~hi)
        in
        let want = Oracle.Wal_store.query twin ~lo ~hi in
        let model =
          match Indexing.Common.clamp_range ~sigma:c.sigma ~lo ~hi with
          | Some (lo, hi) -> model_query m ~lo ~hi
          | None -> Posting.empty
        in
        if
          not
            (Posting.equal got want
            && Posting.equal got model
            && Iosim.Stats.equal (Device.stats dev_s) (Device.stats dev_r)
            && device_bytes_equal dev_s dev_r)
        then ok := false
      done;
      !ok)

(* --- fault hygiene -------------------------------------------------- *)

(* A store with runs on two levels and a non-empty overlay. *)
let hygiene_store () =
  let config =
    { Wal.Store.default_config with flush_threshold = 5; fanout = 3 }
  in
  let sigma = 8 in
  let rng = Fault.Rng.create 404 in
  let data = Array.init 60 (fun _ -> Fault.Rng.int rng sigma) in
  let index_device = fresh_device ~mem_blocks:4 () in
  let store = Wal.Store.create ~index_device config ~sigma ~data in
  let m = model_create ~sigma data in
  for _ = 1 to 52 do
    let op = random_op rng m in
    model_apply m op;
    Wal.Store.update store op
  done;
  (store, index_device, m)

(* Arm one transient failure on each block in turn and query the whole
   alphabet: a query that meets the failure raises [IO_error], and the
   next query, over a narrower range, is still exact. *)
let test_query_fault_hygiene () =
  let store, dev, m = hygiene_store () in
  Alcotest.(check bool) "two levels" true
    (List.length (List.filter (( < ) 0) (Wal.Store.level_counts store)) >= 2);
  let sigma = m.sigma in
  let raised = ref 0 in
  for block = 0 to (Device.used_bits dev / block_bits) do
    Device.clear_pool dev;
    let plan = Fault.create () in
    Device.set_fault dev plan;
    Fault.arm_transient_read plan ~block ~failures:1;
    let failed =
      match Wal.Store.query store ~lo:0 ~hi:(sigma - 1) with
      | _ -> false
      | exception Secidx_error.IO_error _ -> true
    in
    Device.clear_fault dev;
    if failed then incr raised;
    Alcotest.(check bool)
      (Printf.sprintf "block %d: a consumed fault raises" block)
      (Fault.pending_transients plan = 0) failed;
    let got =
      Indexing.Answer.to_posting ~n:m.len (Wal.Store.query store ~lo:2 ~hi:4)
    in
    if not (Posting.equal got (model_query m ~lo:2 ~hi:4)) then
      Alcotest.failf "block %d: query after the fault is wrong" block
  done;
  Alcotest.(check bool) "faults landed" true (!raised > 0)

(* A compaction whose merge meets one transient failure is retried by
   [with_retries] and must leave the store what a fault-free twin
   holds: the same bytes and exact answers. *)
let test_compaction_fault_hygiene () =
  let config =
    { Wal.Store.default_config with flush_threshold = 4; retry_attempts = 3 }
  in
  let sigma = 8 in
  let data = Array.init 40 (fun i -> (i * 5) mod sigma) in
  let m = model_create ~sigma data in
  let rng = Fault.Rng.create 17 in
  let ops =
    List.init 8 (fun _ ->
        let op = random_op rng m in
        model_apply m op;
        op)
  in
  let first = List.filteri (fun i _ -> i < 4) ops
  and second = List.filteri (fun i _ -> i >= 4) ops in
  let start () =
    let dev = fresh_device ~mem_blocks:4 () in
    let store = Wal.Store.create ~index_device:dev config ~sigma ~data in
    Wal.Store.update_batch store first;
    (store, dev)
  in
  let clean, clean_dev = start () in
  Wal.Store.update_batch clean second;
  Alcotest.(check int) "one compaction" 1 (Wal.Store.compactions clean);
  let retried = ref 0 in
  for block = 0 to Device.used_bits clean_dev / block_bits do
    let store, dev = start () in
    Device.clear_pool dev;
    let plan = Fault.create () in
    Device.set_fault dev plan;
    Fault.arm_transient_read plan ~block ~failures:1;
    Wal.Store.update_batch store second;
    Device.clear_fault dev;
    if Fault.pending_transients plan = 0 then begin
      incr retried;
      Alcotest.(check int) "retried" 1 (Device.stats dev).Iosim.Stats.retries
    end;
    Alcotest.(check int) "compacted" 1 (Wal.Store.compactions store);
    Alcotest.(check int) "not degraded" 0 (Wal.Store.degraded store);
    Alcotest.(check bool) "bytes = fault-free twin" true
      (device_bytes_equal dev clean_dev);
    check_answers ~msg:(Printf.sprintf "block %d" block) store m
  done;
  Alcotest.(check bool) "faults landed" true (!retried > 0)

(* A decoded position at or past the string's length can only come
   from a damaged run: the merge refuses it with a typed error. *)
let test_merge_rejects_past_length () =
  let dev = fresh_device () in
  let run written =
    Wal.Run.build dev ~sigma:2
      ~chars:[| Posting.of_list written; Posting.empty |]
      ~tombstones:Posting.empty ~written:(Posting.of_list written)
  in
  let runs = [ run [ 1; 5 ]; run [ 2; 9 ] ] in
  ignore (Wal.Run.merge dev ~n:10 runs);
  match Wal.Run.merge dev ~n:9 runs with
  | _ -> Alcotest.fail "merged a position past the length"
  | exception Secidx_error.Corrupt _ -> ()

(* --- allocation ----------------------------------------------------- *)

(* Minor words plus words allocated straight into the major heap. *)
let allocated f =
  let minor0, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0 +. (major1 -. promoted1) -. (major0 -. promoted0), r)

(* Runs on three levels: a warm query's words are its answer's plus
   the per-run readers and directory lists, a small fraction. *)
let test_query_allocation () =
  let sigma = 8 and n = 1 lsl 14 in
  let rng = Fault.Rng.create 5 in
  let data = Array.init n (fun _ -> Fault.Rng.int rng sigma) in
  let config = { Wal.Store.default_config with flush_threshold = 64; fanout = 4 } in
  let index_device =
    Device.create ~block_bits:1024 ~mem_bits:(1024 * 1024) ()
  in
  let store = Wal.Store.create ~index_device config ~sigma ~data in
  for _ = 1 to 1500 / 15 do
    Wal.Store.update_batch store
      (List.init 15 (fun _ ->
           Wal.Op.Set { pos = Fault.Rng.int rng n; ch = Fault.Rng.int rng sigma }))
  done;
  Alcotest.(check (list int)) "levels" [ 3; 1; 1 ] (Wal.Store.level_counts store);
  let query () = Wal.Store.query store ~lo:2 ~hi:3 in
  ignore (query ());
  let words, a = allocated query in
  let answer = Indexing.Answer.to_posting ~n a in
  let answer_words = float_of_int (Posting.cardinal answer + 1) in
  if words > 1.25 *. answer_words then
    Alcotest.failf "query allocated %.0f words for a %d-position answer" words
      (Posting.cardinal answer)

(* --- crash hook unit behaviour -------------------------------------- *)

let test_crash_hook_semantics () =
  (* clean kill: the triggering group persists in full; torn kill on a
     single-block transfer persists nothing of it *)
  let run ~torn =
    let dev = fresh_device () in
    let log = Wal.Log.create dev in
    Wal.Log.append log [ Wal.Op.Append { ch = 1 } ];
    let plan = Fault.create () in
    Device.set_fault dev plan;
    Fault.arm_crash plan ~after_writes:1 ~torn;
    (try Wal.Log.append log [ Wal.Op.Append { ch = 2 } ]
     with Secidx_error.Crashed _ -> ());
    Alcotest.(check bool) "fired" false (Fault.pending_crash plan);
    Device.clear_fault dev;
    fst (Wal.Log.scan dev)
  in
  Alcotest.(check int) "clean keeps group" 2 (List.length (run ~torn:false));
  Alcotest.(check int) "torn drops group" 1 (List.length (run ~torn:true))

let suite =
  [
    Alcotest.test_case "op codec roundtrip" `Quick test_op_codec;
    Alcotest.test_case "log scan truncates at corruption" `Quick
      test_log_scan_truncates;
    Alcotest.test_case "differential vs oracle" `Quick test_differential;
    Alcotest.test_case "crash-point matrix" `Slow test_crash_matrix;
    Alcotest.test_case "double crash during recovery" `Quick test_double_crash;
    Alcotest.test_case "idempotent replay" `Quick test_idempotent_replay;
    Alcotest.test_case "degraded compaction heals" `Quick
      test_degraded_compaction;
    Alcotest.test_case "crash hook: clean vs torn kill" `Quick
      test_crash_hook_semantics;
    qcheck prop_twin_reference;
    Alcotest.test_case "faulted query leaves no state" `Quick
      test_query_fault_hygiene;
    Alcotest.test_case "retried compaction = fault-free twin" `Quick
      test_compaction_fault_hygiene;
    Alcotest.test_case "warm query allocates ~ its answer" `Quick
      test_query_allocation;
    Alcotest.test_case "merge rejects positions past the length" `Quick
      test_merge_rejects_past_length;
  ]
