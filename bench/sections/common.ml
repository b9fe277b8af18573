(* Helpers shared by the bench sections: console output, the simulated
   device, wall-clock timing, the append and update workloads that
   more than one section drives, and the one writer of every
   BENCH_PR<k>.json artifact. *)

let fmt = Printf.printf

let device ?(block_bits = 1024) ?(mem_blocks = 1024) ?pool_policy () =
  Iosim.Device.create ?pool_policy ~block_bits
    ~mem_bits:(mem_blocks * block_bits) ()

let header title = fmt "\n==== %s ====\n" title

let table headers rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc row -> max acc (String.length (List.nth row i)))
          (String.length h) rows)
      headers
  in
  let print_row cells =
    List.iteri (fun i c -> fmt "%*s  " (List.nth widths i) c) cells;
    fmt "\n"
  in
  print_row headers;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row rows

let avg l = List.fold_left ( +. ) 0.0 l /. float_of_int (max 1 (List.length l))

(* All machine-readable artifacts go through the one Obs.Json writer. *)
module J = Obs.Json

(* Writes BENCH_PR<pr>.json: the pr/label/smoke header, then [fields]
   in order.  Prints "wrote BENCH_PR<pr>.json" followed by [note].
   [gate] is the section's pass flag and the detail of its failure
   line: when the gate fails, prints "BENCH_PR<pr> gate FAILED:
   <detail>" and exits 1. *)
let write_artifact ~pr ~label ~smoke ?(note = "") ?gate fields =
  let file = Printf.sprintf "BENCH_PR%d.json" pr in
  J.to_file file
    (J.Obj
       (("pr", J.Int pr) :: ("label", J.String label)
       :: ("smoke", J.Bool smoke) :: fields));
  fmt "wrote %s%s\n" file note;
  match gate with
  | Some (false, detail) ->
      fmt "BENCH_PR%d gate FAILED: %s\n" pr detail;
      exit 1
  | _ -> ()

(* Mean wall-clock ns per item over [iters] runs, after one warmup. *)
let time_per_item ~iters ~items f =
  f ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  let t1 = Unix.gettimeofday () in
  (t1 -. t0) *. 1e9 /. float_of_int (iters * items)

(* Best-of-N timing: each iteration is timed separately and the
   minimum kept, so scheduler noise inflates neither side of a
   speedup ratio (the mean does, and the 4x gate is strict). *)
let time_per_item_best ~iters ~items f =
  f ();
  (* warmup *)
  let best = ref infinity in
  for _ = 1 to iters do
    let t0 = Unix.gettimeofday () in
    f ();
    let t1 = Unix.gettimeofday () in
    if t1 -. t0 < !best then best := t1 -. t0
  done;
  !best *. 1e9 /. float_of_int items

(* [count] sorted positions with random gaps of 1..200 — the shape
   posting lists take under the Zipf workloads of E2. *)
let gap_values ~count =
  let rng = Hashing.Universal.Rng.create ~seed:7 in
  let values = Array.make count 0 in
  let v = ref (-1) in
  for i = 0 to count - 1 do
    v := !v + 1 + Hashing.Universal.Rng.below rng 200;
    values.(i) <- !v
  done;
  values

(* Gamma decode of [gap_values ~count], best of [iters]: the per-bit
   oracle's ns/item over the word engine's.  Each decode's last value
   is folded into [sink]. *)
let gamma_decode_speedup ~sink ~iters ~count =
  let buf =
    Cbitmap.Gap_codec.to_buf
      (Cbitmap.Posting.of_sorted_array (gap_values ~count))
  in
  let out = Array.make count 0 in
  let engine =
    time_per_item_best ~iters ~items:count (fun () ->
        let d = Bitio.Decoder.of_bitbuf buf in
        Cbitmap.Gap_codec.decode_into d ~count out;
        sink := !sink lxor out.(count - 1))
  in
  let perbit =
    time_per_item_best ~iters ~items:count (fun () ->
        let r = Oracle.Reader.of_bitbuf buf in
        let last = ref (-1) in
        for i = 0 to count - 1 do
          let gap = Oracle.Codes.decode_gamma r in
          let p = if !last < 0 then gap - 1 else !last + gap in
          Array.unsafe_set out i p;
          last := p
        done;
        sink := !sink lxor out.(count - 1))
  in
  perbit /. engine

(* One warm Theorem 2 query [16..47] on E2's Zipf string (smoke:
   n = 4096), folded into [sink]: the query the overhead gates time
   with instrumentation off and on. *)
let warm_e2_query ~smoke ~sink =
  let n = if smoke then 4096 else 16384 in
  let g = Workload.Gen.zipf ~seed:20 ~n ~sigma:256 ~theta:1.0 () in
  let inst =
    Secidx.Static_index.instance (device ()) ~sigma:256 g.Workload.Gen.data
  in
  fun () ->
    sink :=
      !sink
      lxor Indexing.Answer.compressed_bits
             (inst.Indexing.Instance.query ~lo:16 ~hi:47)

(* Theorems 4/5: amortized I/Os per append on a fresh append index
   (E6/E7, and the append envelopes of the tracing section). *)
let append_cost ~buffered ~block_bits ~mem_blocks ~sigma ~n ~appends =
  let g = Workload.Gen.uniform ~seed:10 ~n ~sigma in
  let dev = device ~block_bits ~mem_blocks () in
  let t = Secidx.Append_index.build ~buffered dev ~sigma g.Workload.Gen.data in
  Iosim.Device.reset_stats dev;
  let rng = Hashing.Universal.Rng.create ~seed:11 in
  for _ = 1 to appends do
    Secidx.Append_index.append t (Hashing.Universal.Rng.below rng sigma)
  done;
  ( float_of_int (Iosim.Stats.ios (Iosim.Device.stats dev))
    /. float_of_int appends,
    Secidx.Append_index.rebuilds t )

(* The update-path oracle of the fault and WAL sections: an op
   sequence applied to a plain array (a deleted position holds the
   sentinel character [sigma]).  Returns the apply function, a naive
   range answer over the live string, and a copy of the live string. *)
let mutated_oracle ~sigma data =
  let chars = ref (Array.copy data) in
  let len = ref (Array.length data) in
  let apply op =
    (match op with
    | Wal.Op.Append _ when !len = Array.length !chars ->
        let grown = Array.make (max 16 (2 * !len)) 0 in
        Array.blit !chars 0 grown 0 !len;
        chars := grown
    | _ -> ());
    match op with
    | Wal.Op.Set { pos; ch } -> !chars.(pos) <- ch
    | Wal.Op.Delete { pos } -> !chars.(pos) <- sigma
    | Wal.Op.Append { ch } ->
        !chars.(!len) <- ch;
        incr len
  in
  let answer ~lo ~hi =
    let acc = ref [] in
    for pos = !len - 1 downto 0 do
      if !chars.(pos) >= lo && !chars.(pos) <= hi then acc := pos :: !acc
    done;
    Cbitmap.Posting.of_list !acc
  in
  (apply, answer, fun () -> Array.sub !chars 0 !len)

(* A seeded sequence of [count] operations drawn from [kinds] over a
   string of initial length [len]. *)
let random_ops ~rng ~sigma ~kinds ~len ~count =
  let len = ref len in
  List.init count (fun _ ->
      let rec pick () =
        let op =
          match Iosim.Fault.Rng.int rng 4 with
          | (0 | 1) when !len > 0 ->
              Wal.Op.Set
                { pos = Iosim.Fault.Rng.int rng !len;
                  ch = Iosim.Fault.Rng.int rng sigma }
          | 3 when !len > 0 ->
              Wal.Op.Delete { pos = Iosim.Fault.Rng.int rng !len }
          | _ -> Wal.Op.Append { ch = Iosim.Fault.Rng.int rng sigma }
        in
        if List.mem (Wal.Op.kind op) kinds then op else pick ()
      in
      let op = pick () in
      (match op with Wal.Op.Append _ -> incr len | _ -> ());
      op)
