(* reason-source: what [kgmodel reason FILE] does, on a tiled ownership
   network rendered as [.vada] text — parse it, load the facts, chase,
   read the outputs. Chosen because parsing and loading are a large share
   of it and it has no existential rules (no head checks). *)

module V = Kgm_vadalog
module T = Kgm_telemetry
module M = Measure
module DG = Kgm_algo.Digraph

let tiles = 5

type op = {
  parse_s : float;
  load_s : float;
  chase_s : float;
  op_s : float;
  stats : V.Engine.stats;
  edb : int;
  ok : bool;
}

(* Pairs (x, y) with a path x ->+ y over holdings above the threshold,
   on one tile. *)
let reach_pairs (o : Kgm_finance.Generator.ownership) =
  let n = DG.n o.Kgm_finance.Generator.graph in
  let acc = ref [] in
  let seen = Array.make n (-1) in
  for x = 0 to n - 1 do
    let stack = ref [ x ] in
    while !stack <> [] do
      let z = List.hd !stack in
      stack := List.tl !stack;
      Kgm_finance.Generator.fold_owned o z
        (fun () y w ->
          if w > Inputs.reach_threshold && seen.(y) <> x then begin
            seen.(y) <- x;
            acc := (x, y) :: !acc;
            stack := y :: !stack
          end)
        ()
    done
  done;
  !acc

let shift_tiles pairs =
  List.concat
    (List.init tiles (fun k ->
         let off = k * Inputs.tile_vertices in
         List.map (fun (x, y) -> (x + off, y + off)) pairs))
  |> List.sort_uniq compare

let pairs_of facts ~reflexive =
  List.filter_map
    (function
      | [| Kgm_common.Value.Int x; Kgm_common.Value.Int y |] when reflexive || x <> y ->
          Some (x, y)
      | _ -> None)
    facts
  |> List.sort_uniq compare

let reason ~options ~telemetry src ~expected =
  let span name f = T.with_span telemetry name f in
  let timed name f = M.time (fun () -> span name f) in
  let (program, parse_s), (db, load_s), (stats, chase_s), (outputs, read_s) =
    span "op.reason" (fun () ->
        let ((program, _) as parsed) =
          timed "parser.parse_program" (fun () -> V.Parser.parse_program src)
        in
        let ((db, _) as loaded) =
          timed "database.load" (fun () ->
              let db = V.Database.create () in
              List.iter
                (fun (p, args) -> ignore (V.Database.add db p (Array.of_list args)))
                program.V.Rule.facts;
              db)
        in
        let rules = { program with V.Rule.facts = [] } in
        let chased = timed "engine.run" (fun () -> V.Engine.run ~options ~telemetry rules db) in
        (parsed, loaded, chased, timed "engine.outputs" (fun () -> V.Engine.outputs program db)))
  in
  let controls, reach = expected in
  let out p = Option.value ~default:[] (List.assoc_opt p outputs) in
  let ok =
    pairs_of (out "controls") ~reflexive:false = controls
    && pairs_of (out "reach") ~reflexive:true = reach
  in
  ( { parse_s; load_s; chase_s; op_s = parse_s +. load_s +. chase_s +. read_s; stats;
      edb = List.length program.V.Rule.facts; ok },
    db )

let run ~options ~seed ~seconds ~trace ~trace_file =
  let t = Inputs.tiled ~seed ~tiles in
  let src = Inputs.render t in
  let base = t.Inputs.base in
  let expected =
    ( shift_tiles
        (List.filter (fun (x, y) -> x <> y) (Kgm_finance.Control.all_pairs base)),
      shift_tiles (reach_pairs base) )
  in
  let tele = T.create () and epoch = M.now () in
  let gc0 = M.gc_now () in
  (* one traced store is kept for the store-level probes *)
  let probe_db = ref None in
  let plain, traced =
    M.alternate ~trace ~seconds tele (fun telemetry ->
        let op, db = reason ~options ~telemetry src ~expected in
        if T.enabled telemetry && !probe_db = None then probe_db := Some db;
        op)
  in
  let gc1 = M.gc_now () in
  let all = plain @ traced in
  let first = List.hd all in
  let checks =
    [ ("reason.controls_equal_all_pairs_and_reach_equal_bfs", List.for_all (fun op -> op.ok) all);
      ( "reason.engine_counts_repeat",
        List.for_all
          (fun op -> Layers.engine_counts op.stats = Layers.engine_counts first.stats)
          all );
      ("reason.no_head_checks", first.stats.V.Engine.chase_hits + first.stats.V.Engine.chase_misses = 0) ]
  in
  let n = List.length plain in
  let setup = List.map (fun op -> op.parse_s +. op.load_s) plain in
  let op_s = List.map (fun op -> op.op_s) plain in
  let peak = M.peak_heap_mb () in
  let e2e =
    [ M.metric ~samples:n "reason_s" "s" (M.median op_s);
      M.metric ~samples:n "op_p50_ms" "ms" (1e3 *. M.median op_s);
      M.metric ~samples:n "setup_s" "s" (M.median setup);
      M.metric "peak_heap_mb" "MB" peak ]
  in
  let layers =
    match !probe_db with
    | None -> []
    | Some db ->
        M.write_file trace_file (M.J.to_string (M.chrome_trace [ ("main", epoch, tele) ]));
        let ops = traced in
        let k = List.length ops in
        let med f = M.median (List.map f ops) in
        let keys = Array.of_list (Inputs.companies t) in
        Layers.parse_metrics ~bytes:(String.length src) ~samples:k (med (fun op -> op.parse_s))
        @ [ M.metric ~samples:k "database.load_s" "s" (med (fun op -> op.load_s));
            M.count "database.facts" first.edb ]
        @ M.median_metrics (List.map (fun op -> Layers.engine_metrics op.stats) ops)
        @ Layers.db_probes db keys
        @ [ Layers.query_parse_metric
              (List.init 64 (fun i -> Inputs.query_text (i mod Inputs.shapes) keys.(i))) ]
        @ M.gc_metrics gc0 gc1
        @ M.attribution_metrics (M.attribute (T.spans tele))
        @ [ M.overhead_pct ~traced:(List.map (fun op -> op.op_s) ops) ~untraced:op_s ]
  in
  let failed_ops = List.length (List.filter (fun op -> not op.ok) all) in
  { M.e2e; layers;
    attempted = List.length all + List.length checks;
    failed = failed_ops + List.length (List.filter (fun (_, ok) -> not ok) checks);
    checks;
    info =
      [ ("tiles", M.J.Int tiles);
        ("vertices", M.J.Int (Inputs.vertices t));
        ("edb_facts", M.J.Int first.edb);
        ("source_bytes", M.J.Int (String.length src));
        ("derived_facts", M.J.Int first.stats.V.Engine.new_facts) ] }
