(* serve-mixed: an in-process Kgm_server over an Incremental chase of the
   reasoning program on one tile, driven by two load generators at once
   (two connections, as many as cores): a closed-loop reader issuing
   Zipf-keyed point queries and an open-loop writer applying one
   retract/re-insert batch at a fixed rate. The only workload where
   reads run beside writes, and the only one exercising
   Incremental.maintain and epoch publish. *)

module V = Kgm_vadalog
module Inc = Kgm_vadalog.Incremental
module S = Kgm_server
module T = Kgm_telemetry
module M = Measure

let workers = 2
let setups = 5
let rate_hz = 3.

let config sock =
  { (S.default_config ~sock) with workers; max_requests_per_conn = max_int }

(* A server that answers /ready, with the session behind it. *)
type live = {
  srv : S.t;
  state : Inc.state;
  stats : V.Engine.stats;
  program : V.Rule.program;
}

(* Phase times of one set-up. *)
type timing = {
  parse_s : float;
  load_s : float;
  chase_s : float;
  setup_s : float;
  traced : bool;
}

(* The Database.add loop over the program's facts, skipping [skip]. *)
let load ?skip (program : V.Rule.program) =
  let db = V.Database.create () in
  List.iter
    (fun (p, args) ->
      let f = Array.of_list args in
      if not (Some (p, f) = skip) then ignore (V.Database.add db p f))
    program.V.Rule.facts;
  db

let rules_of (program : V.Rule.program) = { program with V.Rule.facts = [] }

(* Source text to a server answering /ready: parse, load, chase with
   support recording, create and start. *)
let setup ~options ~telemetry ~server_telemetry ~sock src =
  let span name f = T.with_span telemetry name f in
  let timed name f = M.time (fun () -> span name f) in
  let t0 = M.now () in
  span "op.setup" (fun () ->
      let program, parse_s = timed "parser.parse_program" (fun () -> V.Parser.parse_program src) in
      let db, load_s = timed "database.load" (fun () -> load program) in
      let (state, stats), chase_s =
        timed "incremental.chase" (fun () -> Inc.chase ~options ~telemetry ~db (rules_of program))
      in
      let srv =
        span "server.create" (fun () ->
            S.create ~telemetry:server_telemetry (config sock) ~session:state)
      in
      span "server.start" (fun () ->
          S.start srv;
          if not (S.Client.wait_ready ~delay_s:0.001 sock) then
            failwith "server never became ready");
      ( { srv; state; stats; program },
        { parse_s; load_s; chase_s; setup_s = M.now () -. t0; traced = false } ))

let stop srv =
  S.drain srv;
  S.run_until_drained srv

(* ---- load generators ---- *)

type reads = {
  lat : float list;  (* seconds *)
  bytes : int list;
  r_failed : int;
  elapsed : float;
}

let reader ~sock ~seed ~queries ~until ~tele =
  let rng = Random.State.make [| seed; 41 |] in
  let c = S.Client.connect sock in
  let t0 = M.now () in
  let rec go lat bytes failed =
    if M.now () >= until then
      { lat; bytes; r_failed = failed; elapsed = M.now () -. t0 }
    else begin
      let q = Inputs.next_query queries rng in
      let start = M.now () in
      match S.Client.request_on c ~body:q ~meth:"POST" ~path:"/query" () with
      | 200, body ->
          let stop = M.now () in
          T.record_span tele "server.query" ~start ~stop;
          go ((stop -. start) :: lat) (String.length body :: bytes) failed
      | _ | (exception (Failure _ | Unix.Unix_error _)) -> go lat bytes (failed + 1)
    end
  in
  Fun.protect ~finally:(fun () -> S.Client.close c) (fun () -> go [] [] 0)

type write = {
  index : int;  (* position in the batch stream *)
  latency : float;  (* from when the batch was due to its response *)
  late : float;  (* from when it was due to when it was sent *)
  ok : bool;  (* answered 200 *)
  no_fallback : bool;
}

let writer ~sock ~batches ~start ~until ~tele =
  let c = S.Client.connect sock in
  let rec go i acc =
    let due = start +. (float_of_int i /. rate_hz) in
    if i >= Array.length batches || due >= until then List.rev acc
    else begin
      let body = fst batches.(i) in
      let wait = due -. M.now () in
      if wait > 0. then Thread.delay wait;
      let sent = M.now () in
      let code, reply =
        try S.Client.request_on c ~body ~meth:"POST" ~path:"/update" ()
        with Failure _ | Unix.Unix_error _ -> (0, "")
      in
      let stop = M.now () in
      T.record_span tele "server.update" ~start:sent ~stop;
      let w =
        { index = i; latency = stop -. due; late = sent -. due; ok = code = 200;
          no_fallback =
            code = 200
            && List.mem "fallback=false"
                 (String.split_on_char ' ' (String.trim reply)) }
      in
      go (i + 1) (w :: acc)
    end
  in
  Fun.protect ~finally:(fun () -> S.Client.close c) (fun () -> go 0 [])

(* ---- oracle ---- *)

let answer_lines pred facts =
  List.map
    (fun f ->
      pred ^ "("
      ^ String.concat ", " (Array.to_list (Array.map Kgm_common.Value.to_string f))
      ^ ").")
    facts
  |> List.sort compare

let body_lines body =
  List.filter (( <> ) "") (String.split_on_char '\n' body) |> List.sort compare

(* Answers the final epoch must give: a from-scratch chase of the EDB the
   update stream left behind. *)
let expected_answers ~options program ~missing texts =
  let db = load ?skip:missing program in
  ignore (V.Engine.run ~options (rules_of program) db);
  List.map
    (fun text ->
      let atom = List.hd (V.Parser.parse_rule (text ^ " :- " ^ text ^ ".")).V.Rule.head in
      let pos = ref [] and key = ref [] in
      List.iteri
        (fun i t ->
          match t with
          | V.Term.Const v -> pos := i :: !pos; key := v :: !key
          | V.Term.Var _ -> ())
        atom.V.Rule.args;
      answer_lines atom.V.Rule.pred
        (V.Database.lookup db atom.V.Rule.pred (List.rev !pos) (List.rev !key)))
    texts

(* ---- the workload ---- *)

let run ~options ~seed ~seconds ~trace ~trace_file ~sock_dir =
  S.tune_runtime_for_serving ();
  let t = Inputs.tiled ~seed ~tiles:1 in
  let src = Inputs.render t in
  let edges = Inputs.edges t in
  let queries = Inputs.queries ~seed t in
  let batches = Array.of_list (Inputs.batches ~seed edges (int_of_float (seconds *. rate_hz) + 1)) in
  let sock i = Filename.concat sock_dir (Printf.sprintf "s%d-%d.sock" (Unix.getpid ()) i) in
  let main = T.create () and main_epoch = M.now () in
  let server_tele = T.create () and server_epoch = M.now () in
  (* set-ups: all but the last are stopped again; in a traced run they
     alternate untraced / traced, the last one traced *)
  let last = setups - 1 in
  let live = ref None in
  let timings =
    List.init setups (fun i ->
        let traced = trace && (last - i) mod 2 = 0 in
        let telemetry = if traced then main else T.null in
        let server_telemetry = if i = last && trace then server_tele else T.null in
        M.settle ();
        let l, tm = setup ~options ~telemetry ~server_telemetry ~sock:(sock i) src in
        if i < last then ignore (stop l.srv) else live := Some l;
        { tm with traced })
  in
  let live = Option.get !live in
  let edb = List.length live.program.V.Rule.facts in
  (* serving: reader and writer at once for [seconds] *)
  let reader_tele = T.create () and reader_epoch = M.now () in
  let writer_tele = T.create () and writer_epoch = M.now () in
  let t_start = M.now () in
  let until = t_start +. seconds in
  let reads = ref None and writes = ref [] in
  let gc0 = M.gc_now () in
  let rt =
    Thread.create
      (fun () ->
        reads := Some (reader ~sock:(sock last) ~seed ~queries ~until ~tele:reader_tele))
      ()
  in
  let wt =
    Thread.create
      (fun () ->
        writes := writer ~sock:(sock last) ~batches ~start:t_start ~until ~tele:writer_tele)
      ()
  in
  Thread.join rt;
  Thread.join wt;
  let gc1 = M.gc_now () in
  let reads = Option.get !reads and writes = !writes in
  (* final epoch against a from-scratch chase *)
  let applied = List.filter (fun w -> w.ok) writes in
  let missing =
    match List.rev applied with
    | [] -> None
    | w :: _ ->
        let x, y, wt = edges.(snd batches.(w.index)) in
        Some ("own", [| Kgm_common.Value.Int x; Kgm_common.Value.Int y; Kgm_common.Value.Float wt |])
  in
  let hot = Array.sub queries.Inputs.keys 0 64 in
  let check_texts =
    List.concat_map (fun k -> List.init Inputs.shapes (fun s -> Inputs.query_text s k))
      (Array.to_list hot)
  in
  let c = S.Client.connect (sock last) in
  let served =
    List.map
      (fun q ->
        match S.Client.request_on c ~body:q ~meth:"POST" ~path:"/query" () with
        | 200, body -> Some (body_lines body)
        | _ -> None)
      check_texts
  in
  S.Client.close c;
  let expected = expected_answers ~options live.program ~missing check_texts in
  let final = stop live.srv in
  let n_writes = List.length writes in
  let checks =
    [ ("serve.all_responses_200", reads.r_failed = 0 && List.for_all (fun w -> w.ok) writes);
      ("serve.updates_no_fallback", List.for_all (fun w -> w.no_fallback) writes);
      ("serve.final_answers_equal_scratch_chase",
       List.for_all2 (fun s e -> s = Some e) served expected);
      ("serve.epochs_equal_batches", final.S.st_epoch = List.length applied);
      ("serve.no_shed", final.S.st_shed = 0);
      ( "serve.no_head_checks",
        live.stats.V.Engine.chase_hits + live.stats.V.Engine.chase_misses = 0 ) ]
  in
  let lat_ms = List.map (fun w -> w.latency *. 1e3) writes in
  let q_ms = List.map (fun x -> x *. 1e3) reads.lat in
  let n_reads = List.length reads.lat in
  let setup_s = List.map (fun tm -> tm.setup_s) timings in
  let peak = M.peak_heap_mb () in
  let update_p50 = M.metric ~samples:n_writes "update_p50_ms" "ms" (M.median lat_ms) in
  let e2e =
    [ M.metric ~samples:setups "setup_s" "s" (M.median setup_s);
      M.metric ~samples:n_reads "query_req_s" "1/s" (float_of_int n_reads /. reads.elapsed);
      M.metric ~samples:n_reads "query_p50_ms" "ms" (M.median q_ms);
      M.metric ~samples:n_reads "query_p99_ms" "ms" (M.quantile q_ms 0.99);
      update_p50;
      { update_p50 with name = "op_p50_ms" };
      M.metric ~samples:n_writes "update_p90_ms" "ms" (M.quantile lat_ms 0.9);
      M.metric "peak_heap_mb" "MB" peak ]
  in
  let layers =
    if not trace then []
    else begin
      M.write_file trace_file
        (M.J.to_string
           (M.chrome_trace
              [ ("main", main_epoch, main); ("server", server_epoch, server_tele);
                ("reader", reader_epoch, reader_tele); ("writer", writer_epoch, writer_tele) ]));
      (* mirror session: the same batches replayed outside the server,
         timing maintain alone *)
      let mirror, _ = Inc.chase ~options ~db:(load live.program) (rules_of live.program) in
      let maint =
        List.map
          (fun w ->
            let ins, ret = S.Batch.split (S.Batch.parse (fst batches.(w.index))) in
            (w, Inc.maintain mirror ~inserts:ins ~retracts:ret))
          applied
      in
      let ms = List.map (fun (_, u) -> u.Inc.u_elapsed_s *. 1e3) maint in
      let sum f = List.fold_left (fun a (_, u) -> a + f u) 0 maint in
      let k = List.length maint in
      let traced_tm, plain_tm = List.partition (fun tm -> tm.traced) timings in
      let probes = Layers.db_probes (Inc.db mirror) queries.Inputs.keys in
      let parse = Layers.query_parse_metric check_texts in
      let probe_us = (List.find (fun m -> m.M.name = "database.probe_us") probes).M.value in
      let med f = M.median (List.map f traced_tm) in
      let nt = List.length traced_tm in
      Layers.parse_metrics ~bytes:(String.length src) ~samples:nt (med (fun tm -> tm.parse_s))
      @ [ M.metric ~samples:nt "database.load_s" "s" (med (fun tm -> tm.load_s));
          M.count "database.facts" edb ]
      @ Layers.engine_metrics live.stats
      @ probes
      @ [ M.metric ~samples:nt "incremental.chase_s" "s" (med (fun tm -> tm.chase_s));
          M.metric ~samples:k "incremental.maintain_ms" "ms" (M.median ms);
          M.count "incremental.cone" (sum (fun u -> u.Inc.u_cone));
          M.count "incremental.derived" (sum (fun u -> u.Inc.u_derived));
          M.count "incremental.agg_groups" (sum (fun u -> u.Inc.u_agg_groups));
          M.count "incremental.fallbacks" (sum (fun u -> if u.Inc.u_fallback then 1 else 0));
          M.metric ~samples:k "update.maintain_pct" "%"
            (M.median (List.map (fun (w, u) -> 100. *. u.Inc.u_elapsed_s /. w.latency) maint));
          M.metric ~samples:k "update.publish_pct" "%"
            (M.median (List.map (fun (w, u) -> 100. *. (1. -. (u.Inc.u_elapsed_s /. w.latency))) maint));
          M.metric ~samples:k "server.publish_ms" "ms"
            (M.median (List.map (fun (w, u) -> (w.latency *. 1e3) -. (u.Inc.u_elapsed_s *. 1e3)) maint));
          parse;
          M.metric ~samples:n_reads "server.query_overhead_us" "us"
            ((M.median q_ms *. 1e3) -. parse.M.value -. probe_us);
          M.count "server.epochs" final.S.st_epoch;
          M.count "server.shed" final.S.st_shed;
          M.count "server.errors" final.S.st_errors;
          M.metric ~samples:n_reads "query.answer_bytes" "bytes"
            (M.median (List.map float_of_int reads.bytes));
          M.metric ~samples:n_writes "loadgen.update_late_ms" "ms"
            (M.median (List.map (fun w -> w.late *. 1e3) writes));
          M.metric ~samples:n_writes "loadgen.update_late_max_ms" "ms"
            (List.fold_left (fun a w -> Float.max a (w.late *. 1e3)) 0. writes) ]
      @ M.gc_metrics gc0 gc1
      @ M.attribution_metrics
          (List.fold_left M.merge_attr
             (M.attribute (T.spans main))
             [ M.attribute (T.spans reader_tele); M.attribute (T.spans writer_tele) ])
      @ [ M.overhead_pct
            ~traced:(List.map (fun tm -> tm.setup_s) traced_tm)
            ~untraced:(List.map (fun tm -> tm.setup_s) plain_tm) ]
    end
  in
  let failed_checks = List.length (List.filter (fun (_, ok) -> not ok) checks) in
  { M.e2e; layers;
    attempted = n_reads + reads.r_failed + n_writes + List.length checks;
    failed =
      reads.r_failed + List.length (List.filter (fun w -> not w.ok) writes) + failed_checks;
    checks;
    info =
      [ ("vertices", M.J.Int (Inputs.vertices t));
        ("edb_facts", M.J.Int edb);
        ("facts", M.J.Int (V.Database.total (Inc.db live.state)));
        ("distinct_keys", M.J.Int (Array.length queries.Inputs.keys));
        ("update_rate_hz", M.J.Float rate_hz);
        ("batches", M.J.Int n_writes) ] }
