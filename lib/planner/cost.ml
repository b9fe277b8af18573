(* Cost model (PR 10) — see the .mli for the sources of each term. *)

module Envelope = Obs.Envelope

type t = {
  block_bits : int;
  n : int;
  c_exact : float;
  c_approx : float;
  c_verify : float;
  row_blocks : int;
}

let row_blocks_of table =
  let rb = Ridint.Table.row_bits table in
  if rb = 0 then 0
  else
    let n = Ridint.Table.rows table in
    let bb = Iosim.Device.block_bits (Ridint.Table.device table) in
    ((n * rb) + bb - 1) / bb

let of_table table =
  {
    block_bits = Iosim.Device.block_bits (Ridint.Table.device table);
    n = Ridint.Table.rows table;
    c_exact = 1.0;
    c_approx = 1.0;
    c_verify = 1.0;
    row_blocks = row_blocks_of table;
  }

(* The complement trick means an exact query never decodes more than
   min(z, n-z) entries' worth of payload. *)
let exact_bound ~block_bits ~n ~z =
  Envelope.thm2_ios ~block_bits ~n ~z:(max 1 (min z (n - z)))

(* Level-j hashed sets store z hashes of 2^j bits, gap-coded in a
   universe of 2^(2^j): about z·(2^j - lg z) bits, floored at one bit
   per hash, plus the same descent and per-level chunk-entry terms as
   an exact query. *)
let prefilter_bound ~block_bits ~n ~z ~level =
  let zf = float_of_int (max 1 z) in
  let width = Float.max 1.0 ((2.0 ** float_of_int level) -. Envelope.lg zf) in
  let b = Envelope.fan_out ~block_bits ~n in
  Float.max 1.0
    ((zf *. width /. float_of_int block_bits)
    +. (Envelope.lg (float_of_int (max 2 n)) /. Envelope.lg b)
    +. Envelope.lg (Envelope.lg (float_of_int (max 4 n))))

let probe_ios _t ~ranges = float_of_int ranges

let exact_ios t ~z = t.c_exact *. exact_bound ~block_bits:t.block_bits ~n:t.n ~z

let prefilter_ios t ~level ~z =
  t.c_approx *. prefilter_bound ~block_bits:t.block_bits ~n:t.n ~z ~level

(* Expected distinct blocks hit by [rows] uniformly-placed row reads
   out of [row_blocks]: m·(1 - (1 - 1/m)^v).  Tends to v for v << m
   (every verification seeks a fresh block) and saturates at a full
   heap scan.  Scaled by the calibrated locality factor: clustered
   candidate sets share heap blocks, so real tables sit well under
   the uniform model. *)
let uniform_verify_bound ~row_blocks rows =
  if row_blocks = 0 || rows <= 0.0 then 0.0
  else
    let m = float_of_int row_blocks in
    m *. (1.0 -. ((1.0 -. (1.0 /. m)) ** rows))

let verify_ios t ~rows =
  t.c_verify *. uniform_verify_bound ~row_blocks:t.row_blocks rows

(* --- calibration --- *)

let cold_run device f =
  Iosim.Device.clear_pool device;
  Iosim.Device.reset_stats device;
  let r = f () in
  (r, Iosim.Stats.ios (Iosim.Device.stats device))

let sample_ranges = 4
let sample_epsilon = 0.1

(* A few geometrically-widening ranges per column, each run cold:
   measured I/Os against the constant-free bound, constants fitted as
   the smallest covering factor (Envelope.fit).  Approximate samples
   use the level the planner would price, so c_approx absorbs the
   chunk-entry and framing overheads the bound shape elides. *)
let calibrate table =
  let t0 = of_table table in
  let device = Ridint.Table.device table in
  let n = Ridint.Table.rows table in
  let exact_sample = ref [] and approx_sample = ref [] in
  Array.iter
    (fun (col : Ridint.Table.column) ->
      let sigma = col.sigma in
      for i = 0 to sample_ranges - 1 do
        (* widths sigma/2^(i+1), floored at one character *)
        let width = max 1 (sigma lsr (i + 1)) in
        let lo = (i * 31) mod max 1 (sigma - width) in
        let hi = min (sigma - 1) (lo + width - 1) in
        let idx = Ridint.Table.col_index table col.name in
        let a, ios =
          cold_run device (fun () -> Secidx.Static_index.query idx ~lo ~hi)
        in
        let z = Indexing.Answer.cardinal ~n a in
        exact_sample :=
          (ios, exact_bound ~block_bits:t0.block_bits ~n ~z) :: !exact_sample;
        match Ridint.Table.col_approx table col.name with
        | None -> ()
        | Some ap ->
            let level =
              Secidx.Approx_index.level ap ~epsilon:sample_epsilon ~z
            in
            if level <= Secidx.Approx_index.k ap then
              let _, ios =
                cold_run device (fun () ->
                    Secidx.Approx_index.query ap ~epsilon:sample_epsilon ~lo
                      ~hi)
              in
              approx_sample :=
                (ios, prefilter_bound ~block_bits:t0.block_bits ~n ~z ~level)
                :: !approx_sample
      done)
    (Ridint.Table.columns table);
  let c_exact =
    match !exact_sample with [] -> 1.0 | s -> Float.max 0.25 (Envelope.fit s)
  in
  let c_approx =
    match !approx_sample with
    | [] -> c_exact
    | s -> Float.max 0.25 (Envelope.fit s)
  in
  (* Verification locality: read every cell of a few real
     single-character answer sets cold — the same row population a
     residual/prefilter verification pass walks — and fit the measured
     block reads against the uniform-scatter bound.  fit takes the
     max ratio, i.e. the least-clustered sample observed. *)
  let verify_sample = ref [] in
  if t0.row_blocks > 0 then
    Array.iter
      (fun (col : Ridint.Table.column) ->
        List.iter
          (fun ch ->
            let ch = min (col.sigma - 1) ch in
            let idx = Ridint.Table.col_index table col.name in
            let p =
              Indexing.Answer.to_posting ~n
                (Secidx.Static_index.query idx ~lo:ch ~hi:ch)
            in
            let v = min 512 (Cbitmap.Posting.cardinal p) in
            if v > 0 then begin
              Iosim.Device.clear_pool device;
              Iosim.Device.reset_stats device;
              for i = 0 to v - 1 do
                ignore
                  (Ridint.Table.cell table ~column:col.name
                     ~row:(Cbitmap.Posting.get p i))
              done;
              let ios = Iosim.Stats.ios (Iosim.Device.stats device) in
              verify_sample :=
                ( ios,
                  uniform_verify_bound ~row_blocks:t0.row_blocks
                    (float_of_int v) )
                :: !verify_sample
            end)
          [ col.sigma / 2; col.sigma - 5 ])
      (Ridint.Table.columns table);
  let c_verify =
    match !verify_sample with
    | [] -> 1.0
    | s -> Float.min 1.5 (Float.max 0.02 (Envelope.fit s))
  in
  { t0 with c_exact; c_approx; c_verify }
