(* exp2-materialize: Algorithm 2 (Materialize.materialize) over the
   Company KG of an n=400 network with Σ = Intensional.full — the EXP-2
   pipeline. The restricted-chase head check of the null-inventing
   I_SM_Edge rules does most of its work. *)

module G = Kgm_finance.Generator
module PG = Kgm_graphdb.Pgraph
module T = Kgm_telemetry
module M = Measure
module Mat = Kgmodel.Materialize

let sigma = Kgm_finance.Intensional.full

let vertex_of_node data id =
  match PG.node_prop data id "fiscalCode" with
  | Some (Kgm_common.Value.String s) -> Scanf.sscanf s "FC%d" Fun.id
  | _ -> -1

(* Non-reflexive CONTROLS edges flushed into the data graph. *)
let flushed_controls data =
  List.filter_map
    (fun e ->
      let a, b = PG.edge_ends data e in
      let x = vertex_of_node data a and y = vertex_of_node data b in
      if x <> y then Some (x, y) else None)
    (PG.edges_with_label data "CONTROLS")
  |> List.sort_uniq compare

type op = { report : Mat.report; op_s : float; controls_ok : bool }

(* One materialization over a fresh dictionary and data graph (it
   mutates both); only the [materialize] call is timed. *)
let materialize ~options ~telemetry o expected =
  let schema = Kgm_finance.Company_schema.load () in
  let dict = Kgmodel.Dictionary.create () in
  let schema_oid = Kgmodel.Dictionary.store dict schema in
  let instances = Kgmodel.Instances.create dict in
  let data = G.to_company_graph o in
  let report, op_s =
    M.time (fun () ->
        T.with_span telemetry "op.materialize" (fun () ->
            Mat.materialize ~options ~telemetry ~instances ~schema ~schema_oid
              ~data ~sigma ()))
  in
  { report; op_s; controls_ok = flushed_controls data = expected }

let counts r = (r.Mat.derived_nodes, r.Mat.derived_edges, r.Mat.derived_attrs)

let run ~options ~seed ~seconds ~trace ~trace_file =
  let o = Inputs.exp2_ownership ~seed in
  let expected =
    List.sort_uniq compare
      (List.filter (fun (x, y) -> x <> y) (Kgm_finance.Control.all_pairs o))
  in
  let tele = T.create () and epoch = M.now () in
  let gc0 = M.gc_now () in
  let plain, traced =
    M.alternate ~trace ~seconds tele (fun telemetry -> materialize ~options ~telemetry o expected)
  in
  let gc1 = M.gc_now () in
  let all = plain @ traced in
  let first = List.hd all in
  let checks =
    [ ("exp2.controls_equal_all_pairs", List.for_all (fun op -> op.controls_ok) all);
      ( "exp2.flushed_counts_repeat",
        List.for_all (fun op -> counts op.report = counts first.report) all );
      ( "exp2.engine_counts_repeat",
        List.for_all
          (fun op ->
            Layers.engine_counts op.report.Mat.engine_stats
            = Layers.engine_counts first.report.Mat.engine_stats)
          all );
      ("exp2.complete", List.for_all (fun op -> not op.report.Mat.incomplete) all) ]
  in
  let failed =
    List.length
      (List.filter (fun op -> (not op.controls_ok) || op.report.Mat.incomplete) all)
  in
  let op_s = List.map (fun op -> op.op_s) plain in
  let load_s = List.map (fun op -> op.report.Mat.load_s) plain in
  let n = List.length plain in
  let peak = M.peak_heap_mb () in
  let e2e =
    [ M.metric ~samples:n "materialize_s" "s" (M.median op_s);
      M.metric ~samples:n "op_p50_ms" "ms" (1e3 *. M.median op_s);
      M.metric ~samples:n "setup_s" "s" (M.median load_s);
      M.metric "peak_heap_mb" "MB" peak ]
  in
  let layers =
    if not trace then []
    else begin
      M.write_file trace_file (M.J.to_string (M.chrome_trace [ ("main", epoch, tele) ]));
      let per_op op =
        let r = op.report in
        [ M.metric "materialize.load_s" "s" r.Mat.load_s;
          M.metric "materialize.reason_s" "s" r.Mat.reason_s;
          M.metric "materialize.flush_s" "s" r.Mat.flush_s ]
        @ Layers.engine_metrics r.Mat.engine_stats
      in
      let spans = T.spans tele in
      let mtv =
        List.fold_left
          (fun acc s -> if s.T.sp_name = "mtv.translate" then acc +. s.T.sp_dur else acc)
          0. spans
        /. float_of_int (List.length traced)
      in
      let parse_s, parse_n =
        Layers.probe ~min_reps:50 ~budget_s:0.2 (fun () ->
            ignore (Kgm_metalog.Mparser.parse_program sigma))
      in
      M.median_metrics (List.map per_op traced)
      @ [ M.metric ~samples:(List.length traced) "mtv.translate_s" "s" mtv ]
      @ Layers.parse_metrics ~bytes:(String.length sigma) ~samples:parse_n parse_s
      @ [ Layers.query_parse_metric
            (List.init 64 (fun i -> Inputs.query_text (i mod Inputs.shapes) (o.G.n_persons + i))) ]
      @ M.gc_metrics gc0 gc1
      @ M.attribution_metrics (M.attribute spans)
      @ [ M.overhead_pct ~traced:(List.map (fun op -> op.op_s) traced) ~untraced:op_s ]
    end
  in
  { M.e2e; layers;
    attempted = List.length all + List.length checks;
    failed = failed + List.length (List.filter (fun (_, ok) -> not ok) checks);
    checks;
    info =
      [ ("vertices", M.J.Int (Kgm_algo.Digraph.n o.G.graph));
        ("own_edges", M.J.Int (Kgm_algo.Digraph.m o.G.graph));
        ("sigma_bytes", M.J.Int (String.length sigma));
        ("control_pairs", M.J.Int (List.length expected));
        ("derived_edges", M.J.Int first.report.Mat.derived_edges);
        ("derived_attrs", M.J.Int first.report.Mat.derived_attrs) ] }
