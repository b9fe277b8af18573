(* Plan execution (PR 10). *)

module Posting = Cbitmap.Posting
module Table = Ridint.Table
module Metrics = Obs.Metrics

let m_queries = Metrics.counter "planner_queries_total"
let m_considered = Metrics.counter "planner_plans_considered_total"
let m_count_fast = Metrics.counter "planner_count_fastpath_total"
let m_exact_steps = Metrics.counter "planner_exact_steps_total"
let m_prefilter_steps = Metrics.counter "planner_prefilter_steps_total"
let m_residual_steps = Metrics.counter "planner_residual_steps_total"
let m_verified = Metrics.counter "planner_verified_rows_total"
let m_fp_rejected = Metrics.counter "planner_fp_rejected_total"
let h_io_err = Metrics.error_histogram "planner_io_estimate_error"
let h_result_err = Metrics.error_histogram "planner_result_estimate_error"
let h_verify_err = Metrics.error_histogram "planner_verify_estimate_error"

type outcome = {
  rows : Posting.t option;
  count : int;
  plan : Plan.t;
  checked : int;
  fp_rejected : int;
  stats : Iosim.Stats.t;
}

(* Exact decode of one column's disjoint ranges: the single-range case
   is a plain query; several ranges go through the PR 5 batch door so
   shared streams decode once and payload runs prefetch. *)
let exact_posting table n (info : Plan.col_info) =
  let idx = Table.col_index table info.column in
  match info.probes with
  | [ p ] ->
      Indexing.Answer.to_posting ~n (Secidx.Static_index.query idx ~lo:p.lo ~hi:p.hi)
  | ps ->
      let ranges = Array.of_list (List.map (fun (p : Plan.probe) -> (p.lo, p.hi)) ps) in
      Secidx.Static_index.query_batch idx ranges
      |> Array.to_list
      |> List.map (Indexing.Answer.to_posting ~n)
      |> Posting.union_many

(* Keep candidates that are hashed-members of any of the column's
   per-range approximate answers.  No device I/O beyond reading the
   hashed sets themselves; false positives survive to verification. *)
let prefilter_posting table ~epsilon (info : Plan.col_info) cand =
  let a = Option.get (Table.col_approx table info.column) in
  let answers =
    List.map
      (fun (p : Plan.probe) ->
        Secidx.Approx_index.query a ~epsilon ~lo:p.lo ~hi:p.hi)
      info.probes
  in
  Posting.filter
    (fun row -> List.exists (fun ans -> Secidx.Approx_index.mem ans row) answers)
    cand

(* Verification: read each surviving candidate's cells (charged when
   the rows are stored) and keep rows passing every listed column's
   ranges.  Short-circuits across columns per row. *)
let verify table checks cand =
  let keep =
    Posting.filter
      (fun row ->
        List.for_all
          (fun (column, ranges) ->
            Table.check_cell_ranges table ~column ~row ranges)
          checks)
      cand
  in
  let checked = Posting.cardinal cand in
  (keep, checked, checked - Posting.cardinal keep)

let ranges_of (info : Plan.col_info) =
  List.map (fun (p : Plan.probe) -> (p.lo, p.hi)) info.probes

let run_scan table n driver steps =
  let cand = ref (exact_posting table n driver) in
  let to_verify = ref [] in
  List.iter
    (fun (s : Plan.step) ->
      match s.action with
      | Plan.Exact_inter ->
          Metrics.incr m_exact_steps;
          cand := Posting.inter !cand (exact_posting table n s.info)
      | Plan.Prefilter { epsilon; _ } ->
          Metrics.incr m_prefilter_steps;
          cand := prefilter_posting table ~epsilon s.info !cand;
          (* hashed membership has false positives: re-check at the end *)
          to_verify := (s.info.column, ranges_of s.info) :: !to_verify
      | Plan.Residual ->
          Metrics.incr m_residual_steps;
          to_verify := (s.info.column, ranges_of s.info) :: !to_verify)
    steps;
  match List.rev !to_verify with
  | [] -> (!cand, 0, 0)
  | checks -> verify table checks !cand

let run ?cost table (query : Ast.query) =
  let cost = match cost with Some c -> c | None -> Cost.of_table table in
  let n = Table.rows table in
  let device = Table.device table in
  Iosim.Device.clear_pool device;
  Iosim.Device.reset_stats device;
  Metrics.incr m_queries;
  let nq = Ast.normalize ~sigma_of:(Table.col_sigma table) query in
  let plan = Plan.choose cost table nq in
  Metrics.incr ~by:plan.considered m_considered;
  let rows_result, count, checked, fp_rejected =
    match plan.shape with
    | Plan.Const_empty -> (Posting.empty, 0, 0, 0)
    | Plan.All_rows ->
        (* No effective predicate: for Rows the full identity posting
           (no device I/O); for Count just n. *)
        let p =
          match query.kind with
          | Ast.Count -> Posting.empty
          | Ast.Rows -> Posting.of_sorted_array (Array.init n Fun.id)
        in
        (p, n, 0, 0)
    | Plan.Count_directory info ->
        (* The planning-time A-array probes already answered this:
           disjoint non-adjacent ranges make per-range cardinalities
           additive.  Zero payload bits decoded. *)
        Metrics.incr m_count_fast;
        (Posting.empty, info.z, 0, 0)
    | Plan.Scan { driver; steps } ->
        let p, checked, fp = run_scan table n driver steps in
        (p, Posting.cardinal p, checked, fp)
  in
  Metrics.incr ~by:checked m_verified;
  Metrics.incr ~by:fp_rejected m_fp_rejected;
  let stats = Iosim.Stats.snapshot (Iosim.Device.stats device) in
  Metrics.observe_ratio h_io_err ~est:plan.est_ios
    ~actual:(float_of_int (Iosim.Stats.ios stats));
  Metrics.observe_ratio h_result_err ~est:plan.est_result
    ~actual:(float_of_int count);
  if plan.est_verify > 0.0 || checked > 0 then
    Metrics.observe_ratio h_verify_err ~est:plan.est_verify
      ~actual:(float_of_int checked);
  {
    rows = (match query.kind with Ast.Rows -> Some rows_result | Ast.Count -> None);
    count;
    plan;
    checked;
    fp_rejected;
    stats;
  }
