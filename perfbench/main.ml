(* The KGModel pipeline benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Runs one workload (see BENCHMARK.json) on inputs generated from the
   seed, measures for about S seconds and checks the outputs. The last
   stdout line is the result object: with --trace 0 it carries the
   end-to-end metrics BENCHMARK.json declares, with --trace 1 (a run
   with telemetry collectors enabled, which also writes a Chrome trace
   under perfbench/out/) its per-layer metrics. The line before it
   details the run: environment, input sizes, every figure with its
   unit and sample count, and each correctness check. *)

module J = Kgm_telemetry.Json
module M = Measure

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

(* Engine settings are pinned here rather than read from the
   environment (KGM_JOBS and friends are ignored). *)
let jobs = 2

let options =
  { Kgm_vadalog.Engine.default_options with
    jobs;
    planner = true;
    semi_naive = true;
    restricted_chase = true;
    isomorphic_nulls = true }

let out_dir = Filename.concat "perfbench" "out"

(* The metric names and units BENCHMARK.json declares, per section. *)
let declared section =
  let text = In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all in
  match J.of_string text with
  | Error e -> die "BENCHMARK.json: %s" e
  | Ok doc -> (
      match J.member section doc with
      | Some (J.Arr ms) ->
          List.map
            (fun m ->
              match
                (Option.bind (J.member "name" m) J.to_str, Option.bind (J.member "unit" m) J.to_str)
              with
              | Some n, Some u -> (n, u)
              | _ -> die "BENCHMARK.json: malformed %s entry" section)
            ms
      | _ -> die "BENCHMARK.json: no %s list" section)

let is_time unit = List.mem unit [ "s"; "ms"; "us"; "ns" ]

(* A declared metric the workload does not exercise reads 0 when it is a
   count, ratio or share; a missing time is a benchmark bug. *)
let pick ms (name, unit) =
  match List.find_opt (fun m -> m.M.name = name) ms with
  | Some m -> (name, J.Obj [ ("value", J.Float m.M.value); ("unit", J.Str m.M.unit) ])
  | None when not (is_time unit) -> (name, J.Obj [ ("value", J.Float 0.); ("unit", J.Str unit) ])
  | None -> die "workload produced no %s" name

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run") ]
    (fun a -> die "unexpected argument %s" a)
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !seed < 0 || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then
    die "--seed, --seconds and --trace 0|1 are required";
  if Sys.getenv_opt "KGM_FAULTS" <> None then
    die "KGM_FAULTS is set: fault injection would corrupt the measurements";
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let trace_file =
    Filename.concat out_dir (Printf.sprintf "trace-%s.json" !workload)
  in
  let metrics_decl = declared (if trace then "per_layer" else "end_to_end") in
  let r =
    match !workload with
    | "exp2-materialize" -> Exp2.run ~options ~seed ~seconds ~trace ~trace_file
    | "reason-source" -> Reason.run ~options ~seed ~seconds ~trace ~trace_file
    | "serve-mixed" -> Serve.run ~options ~seed ~seconds ~trace ~trace_file ~sock_dir:out_dir
    | w -> die "unknown workload %S" w
  in
  (* the traced run must account for its time layer by layer *)
  let r =
    if not trace then r
    else
      let coverage =
        List.exists (fun m -> m.M.name = "trace.coverage_pct" && m.M.value >= 90.) r.M.layers
      in
      { r with
        M.checks = r.M.checks @ [ ("trace.layers_cover_90pct", coverage) ];
        attempted = r.M.attempted + 1;
        failed = (r.M.failed + if coverage then 0 else 1) }
  in
  let correct = r.M.failed = 0 && List.for_all snd r.M.checks in
  let failed_frac =
    M.metric ~samples:r.M.attempted "failed_frac" "ratio"
      (float_of_int r.M.failed /. float_of_int (max 1 r.M.attempted))
  in
  let detail =
    J.Obj
      [ ("workload", J.Str !workload);
        ("seed", J.Int seed);
        ("seconds", J.Float seconds);
        ("trace", J.Bool trace);
        ( "env",
          J.Obj
            [ ("nproc", J.Int (Domain.recommended_domain_count ()));
              ("ocaml", J.Str Sys.ocaml_version);
              ("jobs", J.Int jobs);
              ("planner", J.Bool options.Kgm_vadalog.Engine.planner);
              ("server_workers", J.Int Serve.workers) ] );
        ("inputs", J.Obj r.M.info);
        ( "metrics",
          J.Obj (List.map (fun m -> (m.M.name, M.json_of_metric m)) (r.M.e2e @ [ failed_frac ] @ r.M.layers)) );
        ("checks", J.Obj (List.map (fun (c, ok) -> (c, J.Bool ok)) r.M.checks));
        ("trace_file", if trace then J.Str trace_file else J.Null) ]
  in
  print_endline (J.to_string detail);
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool correct);
            ("attempted", J.Int r.M.attempted);
            ("failed", J.Int r.M.failed);
            ( "metrics",
              J.Obj (List.map (pick (if trace then r.M.layers else r.M.e2e)) metrics_decl) ) ]))
