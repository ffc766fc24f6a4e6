(* Per-layer figures read from the layers' public results, and the
   micro-probes that time one public call in isolation. *)

module V = Kgm_vadalog
module E = Kgm_vadalog.Engine
module M = Measure

let rule_of rs = try Some (V.Parser.parse_rule rs.E.rs_rule) with _ -> None

let is_aggregate rs =
  match rule_of rs with
  | Some r -> List.exists (function V.Rule.Agg _ -> true | _ -> false) r.V.Rule.body
  | None -> false

(* A rule inventing labeled nulls: a head variable its body never binds. *)
let is_existential rs =
  match rule_of rs with
  | Some r ->
      let bound = V.Rule.body_vars r.V.Rule.body in
      List.exists
        (fun a -> List.exists (fun v -> not (List.mem v bound)) (V.Rule.atom_vars a))
        r.V.Rule.head
  | None -> false

let sum_rules f p (s : E.stats) =
  List.fold_left (fun acc rs -> if p rs then acc +. f rs else acc) 0. s.E.per_rule

(* Counts are deterministic; the two rule-class times come from the
   engine's own per-rule clock. *)
let engine_metrics (s : E.stats) =
  let isum f = List.fold_left (fun acc rs -> acc + f rs) 0 s.E.per_rule in
  let probes = isum (fun rs -> rs.E.rs_probes) in
  let firings = isum (fun rs -> rs.E.rs_firings) in
  let checks = s.E.chase_hits + s.E.chase_misses in
  let exist_s = sum_rules (fun rs -> rs.E.rs_time_s) is_existential s in
  [ M.count "engine.rounds" s.E.rounds;
    M.count "engine.new_facts" s.E.new_facts;
    M.count "engine.probes" probes;
    M.count "engine.firings" firings;
    M.count "engine.nulls" s.E.nulls_invented;
    M.metric "engine.probes_per_firing" "ratio"
      (float_of_int probes /. float_of_int (max 1 firings));
    M.count "engine.head_checks" checks;
    M.metric "engine.head_hit_ratio" "ratio"
      (float_of_int s.E.chase_hits /. float_of_int (max 1 checks));
    M.metric "engine.chase_s" "s" s.E.elapsed_s;
    M.metric "engine.exist_rules_s" "s" exist_s;
    M.metric "engine.exist_share_pct" "%" (100. *. exist_s /. Float.max 1e-12 s.E.elapsed_s);
    M.metric "engine.agg_rules_s" "s" (sum_rules (fun rs -> rs.E.rs_time_s) is_aggregate s) ]

(* The deterministic part: equal inputs must give equal counts. *)
let engine_counts s = List.filter (fun m -> m.M.unit = "count") (engine_metrics s)

(* Median wall time of [f] over enough repetitions to fill [budget_s]
   (at least [min_reps]), in seconds. *)
let probe ?(min_reps = 5) ~budget_s f =
  let t_end = M.now () +. budget_s in
  let rec go n acc =
    let (), dt = M.time f in
    let acc = dt :: acc in
    if n + 1 >= min_reps && M.now () >= t_end then acc else go (n + 1) acc
  in
  let xs = go 0 [] in
  (M.median xs, List.length xs)

(* The server's cache-miss cost: parsing one query text the way
   [/query] does. *)
let query_parse_metric texts =
  let texts = Array.of_list texts in
  let i = ref 0 in
  let t, n =
    probe ~min_reps:200 ~budget_s:0.2 (fun () ->
        let q = texts.(!i mod Array.length texts) in
        incr i;
        ignore (V.Parser.parse_rule (q ^ " :- " ^ q ^ ".")))
  in
  M.metric ~samples:n "query.parse_us" "us" (t *. 1e6)

(* Parse throughput of a source text, for a text too small to time in
   one call. *)
let parse_metrics ~bytes ~samples parse_s =
  [ M.metric ~samples "parser.parse_s" "s" parse_s;
    M.metric ~samples "parser.mb_per_s" "MB/s"
      (float_of_int bytes /. 1e6 /. Float.max 1e-12 parse_s) ]

(* Store-level costs the serving path pays: copying the store (what an
   epoch publish does) and one indexed point lookup per query shape on
   a frozen copy (what a query probes). *)
let db_probes db (keys : int array) =
  let copy_s, copy_n = probe ~min_reps:3 ~budget_s:0.3 (fun () -> ignore (V.Database.copy db)) in
  let frozen = V.Database.copy db in
  let patterns = [ ("controls", [ 0 ]); ("reach", [ 0 ]); ("own", [ 1 ]) ] in
  List.iter (fun (p, pos) -> V.Database.prepare_index frozen p pos) patterns;
  V.Database.freeze frozen;
  let per_shape =
    List.map
      (fun (p, pos) ->
        let i = ref 0 in
        let t, n =
          probe ~min_reps:2000 ~budget_s:0.1 (fun () ->
              let k = keys.(!i mod Array.length keys) in
              incr i;
              ignore (V.Database.lookup frozen p pos [ Kgm_common.Value.Int k ]))
        in
        (p, t, n))
      patterns
  in
  let probe_us = M.median (List.map (fun (_, t, _) -> t *. 1e6) per_shape) in
  [ M.metric ~samples:copy_n "database.copy_ms" "ms" (copy_s *. 1e3);
    M.metric
      ~samples:(List.fold_left (fun a (_, _, n) -> a + n) 0 per_shape)
      "database.probe_us" "us" probe_us ]
  @ List.map
      (fun (p, t, n) -> M.metric ~samples:n ("database.probe_us." ^ p) "us" (t *. 1e6))
      per_shape
