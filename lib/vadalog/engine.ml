(** The reasoning engine: a restricted chase over warded programs with
    stratified negation, stratified and monotonic aggregation, and
    semi-naive evaluation.

    The semantics follows Sec. 4 of the paper: for each satisfied body
    φ(t,t'), a tuple t'' of constants and fresh labeled nulls is invented
    so that ψ(t,t'') holds. Termination on warded programs is obtained
    with the {e restricted} chase: an existential head is only
    instantiated when no homomorphic image of it already exists in the
    database. The oblivious variant (no check) is kept for the ABL-1
    ablation, guarded by the fact budget. *)

open Kgm_common
module Journal = Kgm_telemetry.Journal
module J = Kgm_telemetry.Json

type options = {
  semi_naive : bool;        (** ABL-2: false = naive re-evaluation *)
  restricted_chase : bool;  (** ABL-1: false = oblivious chase *)
  isomorphic_nulls : bool;  (** in the satisfaction check, a body null
                                maps consistently onto any value
                                (Vadalog-style termination for warded
                                programs; DESIGN §9) *)
  reorder_body : bool;      (** ABL-4: greedy join ordering of bodies *)
  provenance : bool;        (** retain the derivation support graph after
                                the chase (in {!stats.support}) so facts
                                can be explained; implied by passing
                                [?support] explicitly *)
  planner : bool;           (** cost-aware chase planning: skip delta
                                rounds of non-recursive strata, evaluate
                                delta-round bodies in selectivity order
                                (emission order restored by sorting, so
                                outputs are bit-for-bit those of the
                                unplanned engine) *)
  max_facts : int;          (** hard budget; exceeded -> Reason error *)
  max_rounds : int;
  check_wardedness : bool;  (** reject non-warded programs *)
  jobs : int;               (** domains evaluating semi-naive rounds;
                                results are identical for every value *)
  deadline_s : float option;
                            (** monotonic wall-clock budget for the run,
                                checked at round boundaries and inside
                                pool workers *)
  on_limit : [ `Raise | `Partial ];
                            (** policy when a budget (facts, rounds,
                                deadline) trips or the run is cancelled:
                                raise as before, or stop cleanly and
                                return a partial result tagged in
                                {!stats.stopped} *)
}

(* KGM_JOBS lets the whole test suite (and any embedding) exercise the
   parallel path without code changes; an explicit [jobs] wins. *)
let default_jobs =
  match Sys.getenv_opt "KGM_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some j when j >= 1 -> j
      | _ -> 1)
  | None -> 1

let default_options =
  { semi_naive = true;
    restricted_chase = true;
    isomorphic_nulls = true;
    reorder_body = false;
    provenance = false;
    planner = true;
    max_facts = 5_000_000;
    max_rounds = 1_000_000;
    check_wardedness = false;
    jobs = default_jobs;
    deadline_s = None;
    on_limit = `Raise }

type limit = [ `Cancelled | `Deadline | `Facts | `Rounds ]

let limit_name : limit -> string = function
  | `Cancelled -> "cancelled"
  | `Deadline -> "deadline"
  | `Facts -> "facts"
  | `Rounds -> "rounds"

(* Internal control-flow for limit trips. [clean] is true when the trip
   happened at a round boundary (or after a mid-round worker abort whose
   delta was restored), i.e. when the database state is exactly the end
   of a completed round and a final checkpoint may be written. A
   mid-merge fact-budget trip is not clean: facts of a half-merged round
   are present, so no checkpoint is written there (the partial result is
   still a deterministic prefix — the merge order is schedule-
   independent). *)
exception Stop_chase of limit * bool

(* ------------------------------------------------------------------ *)
(* Per-rule chase instrumentation. The counters are cheap enough (one
   int bump per event) to stay always-on; spans and histograms are only
   recorded into an enabled [?telemetry] collector. *)

type rule_stats = {
  rs_id : int;             (** position of the rule in the program *)
  rs_rule : string;        (** pretty-printed rule *)
  rs_label : string;       (** short label: head predicates, "p/2,q/3" *)
  rs_firings : int;        (** facts this rule added to the database *)
  rs_matches : int;        (** complete body matches (head instantiations
                               attempted) *)
  rs_probes : int;         (** candidate facts examined while joining *)
  rs_nulls : int;          (** labeled nulls invented *)
  rs_chase_hits : int;     (** restricted-chase checks finding an image
                               (invention suppressed) *)
  rs_chase_misses : int;   (** checks finding none (nulls invented) *)
  rs_head_probes : int;    (** candidate facts the head checks examined
                               (kept out of [rs_probes]) *)
  rs_time_s : float;       (** monotonic time spent evaluating the rule *)
}

(* ------------------------------------------------------------------ *)
(* Derivation support: the full multiset of derivations — what DRed
   maintains and what fact-level explanation walks.

   Delete-and-rederive needs every derivation (a fact whose first
   derivation dies may survive through an alternative one), the nulls
   each firing invented (a null's creating derivation dying retracts
   the null and everything carrying it), and the restricted-chase
   checks that SUPPRESSED an invention (when the homomorphic image that
   satisfied the check dies, the suppressed firing must be re-attempted
   — it may now invent). [Incremental] drives all of this, walking and
   pruning the indexes in place.

   Facts are named by the store's own identity, (predicate, interned
   tuple). The chase records from its sequential merge, once per
   derivation, so recording is an append to a log and nothing more:
   [sync] drains the log into the indexes, and every reader of the
   support ([support_index], [explain_tree], the checkpoint writer)
   calls it first. *)

module FactId = Database.FactId
module FactTbl = Database.FactTbl

type support_entry = {
  se_rule : int;  (* recording id of the firing rule *)
  se_parents : FactId.t list;  (* canonical order: sorted, dedup'd *)
  se_nulls : int list;  (* labeled nulls this firing invented *)
}

type suppressed_firing = {
  sf_rule : int;
  sf_parents : FactId.t list;  (* canonical order *)
  sf_image : FactId.t list;
      (* the homomorphic image that satisfied the head check *)
}

(* a suppressed firing's identity: rule and canonical parents *)
module FiringTbl = Hashtbl.Make (struct
  type t = int * FactId.t list

  let equal (r, ps) (r', ps') = r = r' && List.equal FactId.equal ps ps'

  let hash (r, ps) =
    List.fold_left (fun h p -> (h * 31) + FactId.hash p) r ps
end)

type support_index = {
  sx_entries : support_entry list ref FactTbl.t;
      (* derived fact -> its derivations, most recent first *)
  sx_children : FactId.t list ref FactTbl.t;
      (* body fact -> the facts with an entry consuming it, once each:
         the reverse edges the overdeletion cone walks *)
  sx_null_origin : (int, FactId.t list) Hashtbl.t;
      (* null id -> parents of its creating derivation *)
  sx_null_facts : (int, FactId.t list ref) Hashtbl.t;
      (* null id -> facts whose tuple carries the null *)
  mutable sx_suppressed : suppressed_firing list;
      (* reverse recording order *)
  sx_suppressed_keys : unit FiringTbl.t;
}

(* What a run of logged derivations shares: the rule's recording id
   and how to read its parents back — per positive body literal, the
   predicate and a reader from the sequence number the match recorded
   to the fact (the store's insertion sequence, or a position in the
   round's delta). *)
type origin = {
  o_rule : int;
  o_ppreds : string array;
  o_read : (int -> Database.ifact) array;
}

(* The derivation log, newest first: one small block per derivation,
   allocated young and linked through [prev], its parents left as the
   candidate's own sequence vector — the cheapest thing the merge can
   do. Sequence numbers stay valid until facts are removed, so the log
   must be drained before a removal ([sup_removals] checks it). *)
type logged =
  | Log_start
  | Logged of {
      origin : origin;
      pred : string;
      fact : Database.ifact;
      fresh : bool;  (* the firing inserted the fact *)
      nulls : int list;
      key : int array;  (* parent i is [origin.o_read.(i) key.(i)] *)
      prev : logged;
    }

type support = {
  mutable sup_log : logged;  (* derivations not yet indexed *)
  mutable sup_suppressed_log : suppressed_firing list;
      (* suppressed firings not yet indexed, newest first *)
  mutable sup_db : Database.t;  (* the store the ids and sequences index *)
  mutable sup_removals : int;  (* its removal count when the log began *)
  sup_ix : support_index;
}

let create_support () =
  { sup_log = Log_start;
    sup_suppressed_log = [];
    sup_db = Database.create ~dict:(Intern.create ~size:1 ()) ();
    sup_removals = 0;
    sup_ix =
      { sx_entries = FactTbl.create 1024;
        sx_children = FactTbl.create 1024;
        sx_null_origin = Hashtbl.create 64;
        sx_null_facts = Hashtbl.create 64;
        sx_suppressed = [];
        sx_suppressed_keys = FiringTbl.create 64 } }

let rec value_nulls acc = function
  | Value.Null k -> k :: acc
  | Value.List l -> List.fold_left value_nulls acc l
  | _ -> acc

let fact_nulls (f : Database.fact) =
  Array.fold_left value_nulls [] f |> List.sort_uniq Int.compare

let ifact_nulls dict (f : Database.ifact) =
  Array.fold_left (fun acc id -> value_nulls acc (Intern.resolve dict id)) [] f
  |> List.sort_uniq Int.compare

(* parents are indexed sorted and dedup'd: the trail order differs
   between the sequential and the worker evaluation paths, and DRed
   only needs the SET of body facts a firing consumed *)
let canonical ps = List.sort_uniq FactId.compare ps

let consumes entries p =
  List.exists (fun e -> List.exists (FactId.equal p) e.se_parents) entries

let push tbl k v =
  match Hashtbl.find_opt tbl k with
  | Some r -> r := v :: !r
  | None -> Hashtbl.add tbl k (ref [ v ])

let index_derivation sup fact ~is_new (e : support_entry) =
  let ix = sup.sup_ix in
  if is_new then
    List.iter (fun n -> push ix.sx_null_facts n fact)
      (ifact_nulls (Database.dict sup.sup_db) (snd fact));
  let e = { e with se_parents = canonical e.se_parents } in
  let entries =
    match FactTbl.find_opt ix.sx_entries fact with
    | Some r -> r
    | None ->
        let r = ref [] in
        FactTbl.add ix.sx_entries fact r;
        r
  in
  let dup =
    List.exists
      (fun e' ->
        e'.se_rule = e.se_rule && List.equal FactId.equal e'.se_parents e.se_parents)
      !entries
  in
  if not dup then begin
    List.iter
      (fun p ->
        if not (consumes !entries p) then
          match FactTbl.find_opt ix.sx_children p with
          | Some r -> r := fact :: !r
          | None -> FactTbl.add ix.sx_children p (ref [ fact ]))
      e.se_parents;
    entries := e :: !entries;
    List.iter
      (fun n ->
        if not (Hashtbl.mem ix.sx_null_origin n) then
          Hashtbl.add ix.sx_null_origin n e.se_parents)
      e.se_nulls
  end

let index_suppressed sup (sf : suppressed_firing) =
  let ix = sup.sup_ix in
  let parents = canonical sf.sf_parents in
  let key = (sf.sf_rule, parents) in
  if not (FiringTbl.mem ix.sx_suppressed_keys key) then begin
    FiringTbl.add ix.sx_suppressed_keys key ();
    ix.sx_suppressed <-
      { sf with sf_parents = parents; sf_image = canonical sf.sf_image }
      :: ix.sx_suppressed
  end

let parents_of o key =
  List.init (Array.length o.o_read) (fun i -> (o.o_ppreds.(i), o.o_read.(i) key.(i)))

(* drain the logs into the indexes, in recording order *)
let sync sup =
  let rec chronological acc = function
    | Log_start -> acc
    | Logged l as e -> chronological (e :: acc) l.prev
  in
  if sup.sup_log != Log_start
     && Database.removals sup.sup_db <> sup.sup_removals
  then invalid_arg "Engine: facts were removed before the support was read";
  let log = sup.sup_log in
  sup.sup_log <- Log_start;
  List.iter
    (function
      | Log_start -> ()
      | Logged l ->
          index_derivation sup (l.pred, l.fact) ~is_new:l.fresh
            { se_rule = l.origin.o_rule;
              se_parents = parents_of l.origin l.key;
              se_nulls = l.nulls })
    (chronological [] log);
  match sup.sup_suppressed_log with
  | [] -> ()
  | log ->
      sup.sup_suppressed_log <- [];
      List.iter (index_suppressed sup) (List.rev log)

let support_index sup =
  sync sup;
  sup.sup_ix

let bind_support sup db =
  if sup.sup_db != db then begin
    sync sup;
    sup.sup_db <- db
  end

let log_derivation sup ~origin ~key ~nulls ~is_new pred ifact =
  if sup.sup_log == Log_start then
    sup.sup_removals <- Database.removals sup.sup_db;
  sup.sup_log <-
    Logged { origin; pred; fact = ifact; fresh = is_new; nulls; key; prev = sup.sup_log }

(* an origin for parents already in hand *)
let explicit_origin rule_id preds facts =
  let read = Array.get facts in
  ( { o_rule = rule_id; o_ppreds = preds; o_read = Array.map (fun _ -> read) facts },
    Array.init (Array.length facts) Fun.id )

let record_derivation sup db ~rule_id ~parents ~nulls ~is_new pred ifact =
  bind_support sup db;
  let origin, key =
    explicit_origin rule_id
      (Array.of_list (List.map fst parents))
      (Array.of_list (List.map snd parents))
  in
  log_derivation sup ~origin ~key ~nulls ~is_new pred ifact

let record_suppressed sup ~rule_id ~parents ~image =
  sup.sup_suppressed_log <-
    { sf_rule = rule_id; sf_parents = parents; sf_image = image }
    :: sup.sup_suppressed_log

(* ------------------------------------------------------------------ *)
(* Run statistics                                                       *)

type stats = {
  rounds : int;
  new_facts : int;
  elapsed_s : float;
  delta_sizes : int list;  (** facts derived per semi-naive round, in
                               chronological order across strata *)
  nulls_invented : int;
  chase_hits : int;
  chase_misses : int;
  per_rule : rule_stats list;  (** program order *)
  stopped : limit option;  (** [Some l] when the run stopped early under
                               [on_limit:`Partial]; the result is a
                               deterministic prefix of the fixpoint *)
  support : support option;
                           (** the derivation support recorded during the
                               run, when [options.provenance] was on or a
                               [?support] was passed *)
}

let merge_stats a b =
  { rounds = a.rounds + b.rounds;
    new_facts = a.new_facts + b.new_facts;
    elapsed_s = a.elapsed_s +. b.elapsed_s;
    delta_sizes = a.delta_sizes @ b.delta_sizes;
    nulls_invented = a.nulls_invented + b.nulls_invented;
    chase_hits = a.chase_hits + b.chase_hits;
    chase_misses = a.chase_misses + b.chase_misses;
    per_rule = a.per_rule @ b.per_rule;
    stopped = (match a.stopped with Some _ -> a.stopped | None -> b.stopped);
    support =
      (match a.support with Some _ -> a.support | None -> b.support) }

let pp_rule_table ppf stats =
  let active =
    List.filter
      (fun r -> r.rs_matches > 0 || r.rs_probes > 0 || r.rs_firings > 0)
      stats.per_rule
  in
  let idle = List.length stats.per_rule - List.length active in
  let by_time =
    List.sort (fun a b -> compare b.rs_time_s a.rs_time_s) active
  in
  Format.fprintf ppf "%-28s %8s %8s %10s %6s %6s %6s %10s %10s@."
    "rule" "fired" "matched" "probes" "nulls" "hits" "misses" "head cands"
    "time s";
  Format.fprintf ppf "%s@." (String.make 101 '-');
  List.iter
    (fun r ->
      let label =
        if String.length r.rs_label <= 28 then r.rs_label
        else String.sub r.rs_label 0 25 ^ "..."
      in
      Format.fprintf ppf "%-28s %8d %8d %10d %6d %6d %6d %10d %10.6f@."
        label r.rs_firings r.rs_matches r.rs_probes r.rs_nulls
        r.rs_chase_hits r.rs_chase_misses r.rs_head_probes r.rs_time_s)
    by_time;
  if idle > 0 then
    Format.fprintf ppf "(%d rule%s with no activity omitted)@." idle
      (if idle = 1 then "" else "s");
  Format.fprintf ppf
    "total: %d new facts, %d rounds, %d nulls, %d/%d chase hits/misses, %.6fs@."
    stats.new_facts stats.rounds stats.nulls_invented stats.chase_hits
    stats.chase_misses stats.elapsed_s;
  match stats.stopped with
  | Some l ->
      Format.fprintf ppf
        "INCOMPLETE: stopped on %s after %d rounds (partial fixpoint prefix)@."
        (limit_name l) stats.rounds
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Bindings with trail-based backtracking                               *)

(* Bindings map variables to interned value ids (possibly a worker's
   negative scratch id, see below) — equality checks on the hot join
   path are int compares. *)
type env = {
  tbl : (string, int) Hashtbl.t;
  mutable trail : string list;
}

let env_create () = { tbl = Hashtbl.create 32; trail = [] }

let env_mark env = List.length env.trail

let env_undo env mark =
  while List.length env.trail > mark do
    match env.trail with
    | v :: rest ->
        Hashtbl.remove env.tbl v;
        env.trail <- rest
    | [] -> ()
  done

let env_bind env v value =
  Hashtbl.replace env.tbl v value;
  env.trail <- v :: env.trail

let env_lookup env v = Hashtbl.find_opt env.tbl v

(* ------------------------------------------------------------------ *)
(* Aggregation state (persists across rounds within a run)              *)

module KeyTbl = Database.KeyTbl
module IKeyTbl = Database.IKeyTbl

type group_state = {
  seen : unit KeyTbl.t;  (* contributor/dedup keys *)
  mutable acc : Value.t option;
  mutable n : int;
}

type agg_state = group_state KeyTbl.t

(* Counting-maintenance observers: a maintenance layer listening on
   [?on_agg] sees every distinct monotonic-aggregate contribution (with
   the body facts it came from) and every head fact a group fired —
   including re-derivations of facts already present. That log is what
   lets DRed decrement group totals on retraction instead of falling
   back to a full re-chase. *)
type agg_event =
  | Agg_contrib of {
      ac_rule : int;                 (* recording id of the aggregate rule *)
      ac_group : Value.t list;       (* group key (group_vars order) *)
      ac_key : Value.t list;         (* contributor dedup key *)
      ac_weight : Value.t;           (* the aggregated value *)
      ac_parents : FactId.t list;
          (* body facts matched before the aggregate literal *)
    }
  | Agg_head of {
      ah_rule : int;
      ah_group : Value.t list;
      ah_pred : string;
      ah_fact : Database.ifact;
    }

let agg_step op acc v =
  match op, acc with
  | Rule.Count, None -> Value.Int 1
  | Rule.Count, Some (Value.Int c) -> Value.Int (c + 1)
  | Rule.Count, Some a -> a
  | Rule.Sum, None -> v
  | Rule.Sum, Some a ->
      (match a, v with
       | Value.Int x, Value.Int y -> Value.Int (x + y)
       | _ ->
           (match Value.as_float a, Value.as_float v with
            | Some x, Some y -> Value.Float (x +. y)
            | _ -> Kgm_error.reason_error "sum over non-numeric values"))
  | Rule.Prod, None -> v
  | Rule.Prod, Some a ->
      (match Value.as_float a, Value.as_float v with
       | Some x, Some y -> Value.Float (x *. y)
       | _ -> Kgm_error.reason_error "prod over non-numeric values")
  | Rule.Min, None -> v
  | Rule.Min, Some a -> if Value.compare v a < 0 then v else a
  | Rule.Max, None -> v
  | Rule.Max, Some a -> if Value.compare v a > 0 then v else a
  | Rule.Pack, None -> Value.List [ v ]
  | Rule.Pack, Some (Value.List l) -> Value.List (l @ [ v ])
  | Rule.Pack, Some a -> Value.List [ a; v ]

(* ------------------------------------------------------------------ *)
(* Prepared rules.

   Rule bodies and heads are compiled against the database's dictionary
   at preparation time: constants become interned ids, so matching a
   literal against stored facts never touches a boxed value. *)

type cterm = CConst of int | CVar of string

type catom = { ca_pred : string; ca_args : cterm array }

type clit =
  | CPos of catom
  | CNeg of catom
  | CCond of Expr.t
  | CAssign of string * Expr.t
  | CAgg of Rule.aggregate

let compile_atom dict (a : Rule.atom) =
  { ca_pred = a.Rule.pred;
    ca_args =
      Array.of_list
        (List.map
           (function
             | Term.Const v -> CConst (Intern.intern dict v)
             | Term.Var x -> CVar x)
           a.Rule.args) }

let compile_lit dict = function
  | Rule.Pos a -> CPos (compile_atom dict a)
  | Rule.Neg a -> CNeg (compile_atom dict a)
  | Rule.Cond e -> CCond e
  | Rule.Assign (x, e) -> CAssign (x, e)
  | Rule.Agg g -> CAgg g

type prepared = {
  rule : Rule.rule;
  rule_id : int;
  rid : int;
  (* recording id: the rule id written into support entries, suppressed
     firings and aggregate state. Equal to [rule_id] except when a
     maintenance layer re-runs a slice of a larger pipeline and needs
     the recorded ids to stay stable across slices ([?rule_ids]). *)
  head_label : string;  (* "pred/arity" of every head atom, joined *)
  rule_text : string;
  (* the rule pretty-printed, once per run and at its start: the
     per-rule stats keep it, and a string rendered at the end of a run
     lands among that run's garbage, where a caller keeping many runs'
     stats pins the garbage's heap pages *)
  existentials : string list;
  (* for every monotonic/stratified aggregate literal (at most one
     stratified supported), the variables forming the group key *)
  group_vars : (int * string list) list;  (* literal index -> group vars *)
  strat_agg_index : int option;           (* index of a Stratified Agg literal *)
  has_agg : bool;          (* any aggregate literal: evaluation order
                              matters, so the rule never runs on the
                              worker pool *)
  needed_vars : string array;
  (* the non-existential head variables — everything the merge phase
     needs to re-fire a candidate (ground the head, run the
     restricted-chase check, invent nulls for the rest) *)
  cbody : clit list;   (* body compiled against the dictionary *)
  cheads : catom list; (* head atoms, likewise *)
  pos_preds : string array;
  (* predicates of the positive literals, in body order — the order of
     a candidate's seq vector, from which its parents are read back *)
}

let vars_after body i =
  let rest = List.filteri (fun j _ -> j > i) body in
  List.sort_uniq String.compare
    (List.concat_map
       (function
         | Rule.Pos a | Rule.Neg a -> Rule.atom_vars a
         | Rule.Cond e -> Expr.vars e
         | Rule.Assign (x, e) -> x :: Expr.vars e
         | Rule.Agg g -> (g.Rule.result :: g.Rule.contributors) @ Expr.vars g.Rule.weight)
       rest)

let bound_before body i =
  let prefix = List.filteri (fun j _ -> j < i) body in
  Rule.body_vars prefix

(* Greedy join ordering: bound-variable count (plus constants) first,
   then fewer free variables; non-atom literals run as soon as their
   inputs are bound. Rules with aggregates are left untouched — their
   semantics depend on the written literal order. *)
let reorder_rule ?db (r : Rule.rule) =
  let has_agg =
    List.exists (function Rule.Agg _ -> true | _ -> false) r.Rule.body
  in
  if has_agg then r
  else begin
    let items = Array.of_list r.Rule.body in
    let n = Array.length items in
    let used = Array.make n false in
    let bound = Hashtbl.create 16 in
    let is_bound v = Hashtbl.mem bound v in
    let result = ref [] in
    let add i =
      used.(i) <- true;
      List.iter
        (fun v -> Hashtbl.replace bound v ())
        (Rule.literal_body_bound items.(i));
      result := items.(i) :: !result
    in
    let ready = function
      | Rule.Pos _ | Rule.Agg _ -> false
      | Rule.Neg a -> List.for_all is_bound (Rule.atom_vars a)
      | Rule.Cond e -> List.for_all is_bound (Expr.vars e)
      | Rule.Assign (x, e) ->
          List.for_all (fun v -> v = x || is_bound v) (Expr.vars e)
    in
    let flush_ready () =
      let progress = ref true in
      while !progress do
        progress := false;
        for i = 0 to n - 1 do
          if (not used.(i)) && ready items.(i) then begin
            add i;
            progress := true
          end
        done
      done
    in
    flush_ready ();
    let continue = ref true in
    while !continue do
      let best = ref (-1) in
      let best_score = ref (min_int, min_int, min_int) in
      for i = n - 1 downto 0 do
        if not used.(i) then
          match items.(i) with
          | Rule.Pos a ->
              let anchors =
                List.fold_left
                  (fun acc t ->
                    match t with
                    | Term.Const _ -> acc + 1
                    | Term.Var v -> if is_bound v then acc + 1 else acc)
                  0 a.Rule.args
              in
              (* estimated fan-out: an unanchored atom scans the whole
                 predicate; prefer smaller base cardinalities *)
              let card =
                match db with
                | Some db -> Database.count db a.Rule.pred
                | None -> 0
              in
              let free = List.length a.Rule.args - anchors in
              let score = ((if anchors > 0 then 1 else 0), -free, -card) in
              (* >= so earlier literals win ties (stability) *)
              if score >= !best_score then begin
                best_score := score;
                best := i
              end
          | _ -> ()
      done;
      if !best >= 0 then begin
        add !best;
        flush_ready ()
      end
      else continue := false
    done;
    (* leftovers (unsafe rules are rejected elsewhere) keep their order *)
    for i = 0 to n - 1 do
      if not used.(i) then add i
    done;
    { r with Rule.body = List.rev !result }
  end

let prepare ?rid dict rule_id (r : Rule.rule) =
  let hvars = Rule.head_vars r.Rule.head in
  let group_vars =
    List.concat
      (List.mapi
         (fun i lit ->
           match lit with
           | Rule.Agg g ->
               let before = bound_before r.Rule.body i in
               let after = vars_after r.Rule.body i in
               let used v = List.mem v hvars || List.mem v after in
               let gv =
                 List.filter
                   (fun v ->
                     used v
                     && (not (List.mem v g.Rule.contributors))
                     && v <> g.Rule.result)
                   before
               in
               [ (i, gv) ]
           | _ -> [])
         r.Rule.body)
  in
  let strat_agg_index =
    let rec find i = function
      | [] -> None
      | Rule.Agg g :: _ when g.Rule.mode = Rule.Stratified -> Some i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 r.Rule.body
  in
  (match strat_agg_index with
   | Some i ->
       let extra =
         List.exists
           (function Rule.Agg g -> g.Rule.mode = Rule.Stratified | _ -> false)
           (List.filteri (fun j _ -> j > i) r.Rule.body)
       in
       if extra then
         Kgm_error.validate_error "at most one stratified aggregate per rule"
   | None -> ());
  let existentials = Rule.existential_vars r in
  let has_agg =
    List.exists (function Rule.Agg _ -> true | _ -> false) r.Rule.body
  in
  let needed_vars =
    Array.of_list
      (List.filter
         (fun v -> not (List.mem v existentials))
         (Rule.head_vars r.Rule.head))
  in
  { rule = r;
    rule_id;
    rid = (match rid with Some id -> id | None -> rule_id);
    head_label =
      String.concat ","
        (List.map
           (fun (a : Rule.atom) ->
             Printf.sprintf "%s/%d" a.Rule.pred (List.length a.Rule.args))
           r.Rule.head);
    rule_text = Format.asprintf "%a" Rule.pp_rule r;
    existentials;
    group_vars;
    strat_agg_index;
    has_agg;
    needed_vars;
    cbody = List.map (compile_lit dict) r.Rule.body;
    cheads = List.map (compile_atom dict) r.Rule.head;
    pos_preds =
      Array.of_list
        (List.filter_map
           (function Rule.Pos a -> Some a.Rule.pred | _ -> None)
           r.Rule.body) }

(* ------------------------------------------------------------------ *)

(* per-rule mutable counters, aggregated into [rule_stats] at the end *)
type rule_ctr = {
  mutable c_firings : int;
  mutable c_matches : int;
  mutable c_probes : int;
  mutable c_nulls : int;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_head_probes : int;
  mutable c_time : float;
}

let fresh_ctr () =
  { c_firings = 0; c_matches = 0; c_probes = 0; c_nulls = 0; c_hits = 0;
    c_misses = 0; c_head_probes = 0; c_time = 0. }

type run_state = {
  db : Database.t;
  opts : options;
  mutable added : int;
  agg_states : (int, agg_state) Hashtbl.t; (* rid -> state *)
  sup : support option;  (* full derivation support (DRed, explanation) *)
  on_agg : (agg_event -> unit) option;
  (* group keys of the aggregate literals on the current evaluation
     path, innermost first — lets [fire] attribute head facts to the
     group that produced them. Aggregate rules only run sequentially
     (has_agg), so a plain mutable field is safe. *)
  mutable agg_notes : (int * Value.t list) list;
  (* facts matched so far on the current evaluation path. The scan path
     pushes/pops once per matched candidate at EVERY join level — tens
     of millions of times per round on probe-heavy joins — so it uses a
     manually-grown stack instead of list cells: a cons here would churn
     the minor heap enough to show up as whole-run overhead. *)
  mutable trail_preds : string array;
  mutable trail_facts : Database.ifact array;
  mutable trail_len : int;
  (* worker-merge path only (the stack is empty there): the candidate's
     insertion-seq vector, and the origin that reads its parents back *)
  mutable cand_key : int array;
  mutable cand_origin : origin option;
  (* worker-local ids for values first computed on this domain while
     the dictionary is frozen (Assign results, mostly); re-interned
     sequentially at merge *)
  sc : Intern.Scratch.s;
  tele : Kgm_telemetry.t;
  jr : Kgm_telemetry.Journal.t;
  ctrs : rule_ctr array;       (* indexed by rule_id *)
  mutable cur : rule_ctr;      (* counters of the rule being evaluated *)
  mutable round : int;         (* current fixpoint round (for errors) *)
  mutable trip_rule : string option;
                               (* rule that tripped the fact budget, for
                                  the error context under `Raise *)
}

let trail_push st pred fact =
  let n = st.trail_len in
  if n = Array.length st.trail_preds then begin
    let cap = if n = 0 then 8 else 2 * n in
    let tp = Array.make cap "" and tf = Array.make cap [||] in
    Array.blit st.trail_preds 0 tp 0 n;
    Array.blit st.trail_facts 0 tf 0 n;
    st.trail_preds <- tp;
    st.trail_facts <- tf
  end;
  st.trail_preds.(n) <- pred;
  st.trail_facts.(n) <- fact;
  st.trail_len <- n + 1

(* the current match's parents as an origin and a key: the worker
   candidate's own, or the sequential stack copied out *)
let match_origin st (prep : prepared) =
  match st.cand_origin with
  | Some o when st.trail_len = 0 -> (o, st.cand_key)
  | _ ->
      let n = st.trail_len in
      explicit_origin prep.rid (Array.sub st.trail_preds 0 n)
        (Array.sub st.trail_facts 0 n)

let trail_parents st prep =
  let o, key = match_origin st prep in
  parents_of o key

(* Labeled nulls are drawn from a process-wide counter: successive runs
   over a shared database (e.g. the two phases of Algorithm 2) must
   never re-issue a null already present in the facts. Atomic so the
   invariant survives embeddings that run engines from several domains;
   within one run only the sequential merge phase invents nulls, which
   is what makes the numbering independent of [options.jobs]. *)
let global_null_counter = Atomic.make 0

(* [fresh_null st] returns the interned id of the fresh null and its
   label. Only called from the sequential merge sweep, where appending
   to the dictionary is legal. *)
let fresh_null st =
  st.cur.c_nulls <- st.cur.c_nulls + 1;
  let n = Atomic.fetch_and_add global_null_counter 1 + 1 in
  (Intern.intern (Database.dict st.db) (Value.Null n), n)

(* Id handling. Non-negative ids live in the shared dictionary;
   negative ids are worker-local scratch entries (values a worker
   computed that the frozen dictionary does not hold). [value_id]
   encodes a computed value: a direct intern when the store is live
   (sequential paths — deterministic id order), a read-only find plus
   scratch fallback when frozen (worker paths — no mutation). A scratch
   id can never spuriously equal a dictionary id, and two ids are equal
   iff their values are: scratch entries are only created for values
   absent from the dictionary, and both tables dedup. *)
let resolve_id st id =
  if id >= 0 then Intern.resolve (Database.dict st.db) id
  else Intern.Scratch.resolve st.sc id

let value_id st v =
  if Database.is_frozen st.db then
    match Intern.find (Database.dict st.db) v with
    | Some id -> id
    | None -> Intern.Scratch.id st.sc v
  else Intern.intern (Database.dict st.db) v

let id_is_null st id =
  if id >= 0 then Intern.is_null (Database.dict st.db) id
  else Value.is_null (Intern.Scratch.resolve st.sc id)

(* variable resolver for expression evaluation over id bindings *)
let env_value st env x = Option.map (resolve_id st) (env_lookup env x)

let cterm_id env = function
  | CConst id -> Some id
  | CVar x -> env_lookup env x

(* The per-round delta a rule evaluation ranges over, with a lazily
   built hash index per (arity, bound-positions) pattern. A probe's
   group holds exactly the facts the old linear filter (arity guard
   first, then pointwise equality at the bound positions) would have
   kept, in the same chronological order — probe counters and match
   order are unchanged, only the per-probe scan of the whole delta goes
   away. *)
type delta_group = {
  dg_facts : Database.ifact array;  (* chronological *)
  dg_cache : (int * int list, Database.ifact list ref IKeyTbl.t) Hashtbl.t;
}

let delta_group facts = { dg_facts = facts; dg_cache = Hashtbl.create 4 }

let dg_lookup dg ~arity positions key =
  let ck = (arity, positions) in
  let tbl =
    match Hashtbl.find_opt dg.dg_cache ck with
    | Some t -> t
    | None ->
        let t = IKeyTbl.create 32 in
        Array.iter
          (fun f ->
            if Array.length f = arity then begin
              (* positions all < arity: they index a literal of this arity *)
              let k = List.map (fun i -> f.(i)) positions in
              match IKeyTbl.find_opt t k with
              | Some r -> r := f :: !r
              | None -> IKeyTbl.add t k (ref [ f ])
            end)
          dg.dg_facts;
        IKeyTbl.iter (fun _ r -> r := List.rev !r) t;
        Hashtbl.add dg.dg_cache ck t;
        t
  in
  match IKeyTbl.find_opt tbl key with Some r -> !r | None -> []

(* The positions of [args] bound under [env] (constants and bound
   variables) and their ids: a probe's index pattern and key. *)
let probe_key env args =
  let positions = ref [] and key = ref [] in
  for i = Array.length args - 1 downto 0 do
    match cterm_id env args.(i) with
    | Some id ->
        positions := i :: !positions;
        key := id :: !key
    | None -> ()
  done;
  (!positions, !key)

(* Run [k] with [env] extended so that [args] match [fact] (id
   equality), when they do; the bindings are undone afterwards. *)
let with_match env args (fact : Database.ifact) k =
  let n = Array.length args in
  if Array.length fact = n then begin
    let mark = env_mark env in
    (match
       for i = 0 to n - 1 do
         match args.(i) with
         | CConst id -> if id <> fact.(i) then raise Exit
         | CVar x ->
             (match env_lookup env x with
              | Some id -> if id <> fact.(i) then raise Exit
              | None -> env_bind env x fact.(i))
       done
     with
     | () -> k ()
     | exception Exit -> ());
    env_undo env mark
  end

(* Enumerate facts matching atom under env; call k for each extension.
   The continuation may add facts to the live store mid-iteration; a
   probe only visits the facts present when it started, so the
   enumeration is stable. *)
let match_atom st env (a : catom) ~facts_override k =
  let positions, key = probe_key env a.ca_args in
  let each _ (fact : Database.ifact) =
    with_match env a.ca_args fact (fun () ->
        if Option.is_some st.sup then begin
          trail_push st a.ca_pred fact;
          k ();
          st.trail_len <- st.trail_len - 1
        end
        else k ())
  in
  let examined =
    match facts_override with
    | Some dg ->
        let group =
          dg_lookup dg ~arity:(Array.length a.ca_args) positions key
        in
        List.iter (each 0) group;
        List.length group
    | None -> Database.iter_matches_i st.db a.ca_pred positions key each
  in
  st.cur.c_probes <- st.cur.c_probes + examined

let ground_atom env (a : catom) : Database.ifact =
  Array.map
    (fun t ->
      match cterm_id env t with
      | Some id -> id
      | None -> Kgm_error.reason_error "unbound variable in ground_atom")
    a.ca_args

(* Does the head have a homomorphic image in the database under env?
   A backtracking search over head atoms; existential vars accumulate
   bindings.

   With [isomorphic_nulls] (the default, mirroring the Vadalog System's
   termination strategy for warded programs), a labeled null bound in
   the body is flexible: it may map onto any value, a null or a
   constant, the same one at every occurrence. This is what makes
   chases like [mgr(X,M) :- emp(X). emp(M) :- mgr(X,M).] terminate;
   mapping onto constants can also lose certain answers (DESIGN §9).

   Each level takes the remaining head atom whose index group under the
   current bindings is smallest, ties in written order (DESIGN §8: the
   number of bound positions is no guide, a bound edge-type constant
   selects every edge of its type). The search is complete, so the
   order only decides which image is found first.

   Returns [Some image] — the database facts forming the satisfying
   homomorphic image, one per head atom — or [None] when no image
   exists. The maintenance layer records the image with the suppressed
   firing: should any of its facts later be retracted, the firing is
   re-attempted (and may then invent). *)
exception Head_image of (string * Database.ifact) list

let head_satisfied st env (prep : prepared) =
  let ex_env : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let null_map : (int, int) Hashtbl.t = Hashtbl.create 4 in
  let iso = st.opts.isomorphic_nulls in
  (* [`Rigid id]: the image is the term's id itself (constants,
     non-null body bindings, and already-chosen images of
     existentials); [`Flex id]: a body-bound null, whose image is kept
     consistent in [null_map]; [`Free x]: an existential without an
     image yet. *)
  let requirement t =
    match t with
    | CConst id -> if iso && id_is_null st id then `Flex id else `Rigid id
    | CVar x ->
        (match env_lookup env x with
         | Some id -> if iso && id_is_null st id then `Flex id else `Rigid id
         | None ->
             (match Hashtbl.find_opt ex_env x with
              | Some id -> `Rigid id
              | None -> `Free x))
  in
  (* the probe of [a]: rigid required ids and already-mapped nulls *)
  let probe (a : catom) =
    let positions = ref [] and key = ref [] in
    for i = Array.length a.ca_args - 1 downto 0 do
      match requirement a.ca_args.(i) with
      | `Rigid id ->
          positions := i :: !positions;
          key := id :: !key
      | `Flex id ->
          (match Hashtbl.find_opt null_map id with
           | Some mapped ->
               positions := i :: !positions;
               key := mapped :: !key
           | None -> ())
      | `Free _ -> ()
    done;
    (!positions, !key)
  in
  (* Run [k] with the bindings extended so that [a] maps onto [fact],
     when it does; the new bindings are undone afterwards. *)
  let with_image (a : catom) (fact : Database.ifact) k =
    let args = a.ca_args in
    let n = Array.length args in
    if Array.length fact = n then begin
      let new_ex = ref [] and new_nulls = ref [] in
      (match
         for i = 0 to n - 1 do
           match requirement args.(i) with
           | `Rigid id -> if id <> fact.(i) then raise Exit
           | `Flex id ->
               (* consistent mapping: one image per null *)
               (match Hashtbl.find_opt null_map id with
                | Some mapped -> if mapped <> fact.(i) then raise Exit
                | None ->
                    Hashtbl.add null_map id fact.(i);
                    new_nulls := id :: !new_nulls)
           | `Free x ->
               Hashtbl.add ex_env x fact.(i);
               new_ex := x :: !new_ex
         done
       with
       | () -> k ()
       | exception Exit -> ());
      List.iter (Hashtbl.remove ex_env) !new_ex;
      List.iter (Hashtbl.remove null_map) !new_nulls
    end
  in
  let rec search image = function
    | [] -> raise (Head_image image)
    | first :: others as atoms ->
        let ranked (a : catom) =
          let positions, key = probe a in
          (Database.probe_cost st.db a.ca_pred positions key, a, positions, key)
        in
        let _, a, positions, key =
          List.fold_left
            (fun ((cost, _, _, _) as best) b ->
              let ((cost', _, _, _) as cand) = ranked b in
              if cost' < cost then cand else best)
            (ranked first) others
        in
        let rest = List.filter (fun b -> b != a) atoms in
        ignore
          (Database.iter_matches_i st.db a.ca_pred positions key
             (fun _ fact ->
               st.cur.c_head_probes <- st.cur.c_head_probes + 1;
               with_image a fact (fun () ->
                   search ((a.ca_pred, fact) :: image) rest)))
  in
  match search [] prep.cheads with
  | () -> None
  | exception Head_image image -> Some image

let fire st env (prep : prepared) ~on_new =
  st.cur.c_matches <- st.cur.c_matches + 1;
  let budget_check () =
    if Database.total st.db > st.opts.max_facts then begin
      (* trip mid-merge: not a clean round boundary, no checkpoint. The
         error (or tagged partial result) is produced by [run]'s outer
         handler, which keeps the firing rule for the context. *)
      st.trip_rule <- Some prep.rule_text;
      raise (Stop_chase (`Facts, false))
    end
  in
  let add_head nulls (a : catom) =
    let ifact = ground_atom env a in
    let is_new = Database.add_i st.db a.ca_pred ifact in
    if is_new then begin
      st.added <- st.added + 1;
      st.cur.c_firings <- st.cur.c_firings + 1;
      budget_check ()
    end;
    (* support and aggregate observers see EVERY derivation — including
       re-derivations of a fact already present: DRed needs the
       alternatives a fact may survive a retraction through *)
    (match st.sup with
     | Some sup ->
         let origin, key = match_origin st prep in
         log_derivation sup ~origin ~key ~nulls ~is_new a.ca_pred ifact
     | None -> ());
    (match st.on_agg with
     | Some f ->
         List.iter
           (fun (rid, group) ->
             f (Agg_head { ah_rule = rid; ah_group = group;
                           ah_pred = a.ca_pred; ah_fact = ifact }))
           st.agg_notes
     | None -> ());
    if is_new then on_new a.ca_pred ifact
  in
  if prep.existentials = [] then List.iter (add_head []) prep.cheads
  else begin
    let satisfied =
      st.opts.restricted_chase
      &&
      match head_satisfied st env prep with
      | Some image ->
          st.cur.c_hits <- st.cur.c_hits + 1;
          (match st.sup with
           | Some sup ->
               record_suppressed sup ~rule_id:prep.rid
                 ~parents:(trail_parents st prep) ~image
           | None -> ());
          true
      | None ->
          st.cur.c_misses <- st.cur.c_misses + 1;
          false
    in
    if not satisfied then begin
      let mark = env_mark env in
      let invented =
        List.map
          (fun x ->
            let id, k = fresh_null st in
            env_bind env x id;
            k)
          prep.existentials
      in
      List.iter (add_head invented) prep.cheads;
      env_undo env mark
    end
  end

(* Negations, conditions and assignments, the same on every evaluation
   path: [continue] runs once when the literal holds (an assignment
   binds its variable around it). *)
let eval_filter st env lit continue =
  match lit with
  | CNeg a ->
      (* a fact holding a worker-local scratch id cannot be stored:
         [mem_i] is false, i.e. the negated atom correctly fails to
         block *)
      if not (Database.mem_i st.db a.ca_pred (ground_atom env a)) then
        continue ()
  | CCond e -> if Expr.truthy_fn (env_value st env) e then continue ()
  | CAssign (x, e) -> (
      let id = value_id st (Expr.eval_fn (env_value st env) e) in
      match env_lookup env x with
      | Some id' -> if id = id' then continue ()
      | None ->
          let mark = env_mark env in
          env_bind env x id;
          continue ();
          env_undo env mark)
  | CPos _ | CAgg _ ->
      Kgm_error.reason_error "not a filter literal (engine bug)"

(* the values [vars] are bound to, for aggregate keys *)
let bound_values st env what vars =
  List.map
    (fun v ->
      match env_value st env v with
      | Some value -> value
      | None -> Kgm_error.reason_error "unbound %s %s" what v)
    vars

(* the group of [key], created empty on first use *)
let agg_group (state : agg_state) key =
  match KeyTbl.find_opt state key with
  | Some g -> g
  | None ->
      let g = { seen = KeyTbl.create 16; acc = None; n = 0 } in
      KeyTbl.add state key g;
      g

(* Evaluate literals from position [i]; [delta] optionally designates a
   literal index whose atom must range over the given fact list.
   [emit] is called (under the complete bindings) once per satisfied
   body: the sequential path fires the head on the spot, the worker
   path records a candidate for the merge phase. *)
let rec eval_literals st env (prep : prepared) body i ~delta ~emit =
  match body with
  | [] -> emit ()
  | lit :: rest -> (
      let continue () = eval_literals st env prep rest (i + 1) ~delta ~emit in
      match lit with
      | CPos a ->
          let facts_override =
            match delta with
            | Some (j, fl) when j = i -> Some fl
            | _ -> None
          in
          match_atom st env a ~facts_override continue
      | CNeg _ | CCond _ | CAssign _ -> eval_filter st env lit continue
      | CAgg g when g.Rule.mode = Rule.Monotonic ->
          (* aggregate state is checkpointed, so its keys stay
             value-level; aggregates only run on the sequential path *)
          let group_key =
            bound_values st env "group variable" (List.assoc i prep.group_vars)
          in
          let contrib_key =
            bound_values st env "contributor" g.Rule.contributors
          in
          let state =
            match Hashtbl.find_opt st.agg_states prep.rid with
            | Some s -> s
            | None ->
                let s = KeyTbl.create 64 in
                Hashtbl.add st.agg_states prep.rid s;
                s
          in
          let group = agg_group state group_key in
          if not (KeyTbl.mem group.seen contrib_key) then begin
            KeyTbl.add group.seen contrib_key ();
            let w = Expr.eval_fn (env_value st env) g.Rule.weight in
            group.acc <- Some (agg_step g.Rule.op group.acc w);
            group.n <- group.n + 1;
            (match st.on_agg with
             | Some f ->
                 f (Agg_contrib
                      { ac_rule = prep.rid; ac_group = group_key;
                        ac_key = contrib_key; ac_weight = w;
                        ac_parents = trail_parents st prep })
             | None -> ());
            let mark = env_mark env in
            env_bind env g.Rule.result (value_id st (Option.get group.acc));
            (match st.on_agg with
             | Some _ ->
                 st.agg_notes <- (prep.rid, group_key) :: st.agg_notes;
                 Fun.protect
                   ~finally:(fun () -> st.agg_notes <- List.tl st.agg_notes)
                   continue
             | None -> continue ());
            env_undo env mark
          end
      | CAgg _ ->
          Kgm_error.reason_error
            "stratified aggregate not handled inline (engine bug)")

(* Stratified-aggregate rule: enumerate prefix, group, then run suffix
   per group with only the group variables (plus result) in scope. *)
let eval_stratified st (prep : prepared) agg_i ~on_new =
  let body = prep.cbody in
  let prefix = List.filteri (fun j _ -> j < agg_i) body in
  let suffix = List.filteri (fun j _ -> j > agg_i) body in
  let g =
    match List.nth body agg_i with
    | CAgg g -> g
    | _ -> assert false
  in
  let gv = List.assoc agg_i prep.group_vars in
  (* set-semantics dedup key: one contribution per distinct binding of
     the NAMED prefix variables. Variables starting with '_' (the
     parser's anonymous "_" and MTV's generated slot fillers) denote
     don't-care positions of the same graph element: two facts that
     differ only there must not contribute twice. *)
  let prefix_vars =
    List.filter
      (fun v -> not (String.length v > 0 && v.[0] = '_'))
      (Rule.body_vars
         (List.filteri (fun j _ -> j < agg_i) prep.rule.Rule.body))
  in
  let groups : agg_state = KeyTbl.create 64 in
  let rec enumerate env lits k =
    match lits with
    | [] -> k ()
    | CPos a :: rest ->
        match_atom st env a ~facts_override:None (fun () -> enumerate env rest k)
    | CAgg _ :: _ -> Kgm_error.reason_error "nested aggregate"
    | lit :: rest -> eval_filter st env lit (fun () -> enumerate env rest k)
  in
  let env = env_create () in
  enumerate env prefix (fun () ->
      let group_key = bound_values st env "group variable" gv in
      let dedup_key =
        if g.Rule.contributors <> [] then
          bound_values st env "contributor" g.Rule.contributors
        else
          (* set semantics: one contribution per distinct prefix binding *)
          List.map
            (fun v -> Option.value ~default:(Value.Null 0) (env_value st env v))
            prefix_vars
      in
      let group = agg_group groups group_key in
      if not (KeyTbl.mem group.seen dedup_key) then begin
        KeyTbl.add group.seen dedup_key ();
        let w = Expr.eval_fn (env_value st env) g.Rule.weight in
        group.acc <- Some (agg_step g.Rule.op group.acc w)
      end);
  (* per group: bind group vars + result, then run the suffix and head *)
  KeyTbl.iter
    (fun group_key group ->
      match group.acc with
      | None -> ()
      | Some acc ->
          let env = env_create () in
          List.iter2 (fun v value -> env_bind env v (value_id st value)) gv
            group_key;
          env_bind env g.Rule.result (value_id st acc);
          eval_literals st env prep suffix (agg_i + 1) ~delta:None
            ~emit:(fun () -> fire st env prep ~on_new))
    groups

(* ------------------------------------------------------------------ *)

(* Expression evaluation errors (division by zero, an unknown builtin)
   leave the engine as [Reason] errors naming the rule — converted here,
   where a rule is evaluated, on the sequential and the worker path. *)
let guard_eval (prep : prepared) f =
  try f ()
  with Expr.Eval_error msg ->
    Kgm_error.reason_error_ctx
      [ ("rule", prep.rule_text) ]
      "%s" msg

(* Close one rule evaluation (or merge) started at [t0] with [before]
   facts added: its time, its span and its journal batch. *)
let finish_rule st (prep : prepared) ~t0 ~before =
  let ctr = st.ctrs.(prep.rule_id) in
  let t1 = Kgm_telemetry.Clock.now () in
  ctr.c_time <- ctr.c_time +. (t1 -. t0);
  if Kgm_telemetry.enabled st.tele then begin
    Kgm_telemetry.observe st.tele "engine.rule_eval_s" (t1 -. t0);
    (* one span per rule evaluation that actually fired; quiet
       evaluations stay out of the trace to keep it readable *)
    if st.added > before then
      Kgm_telemetry.record_span st.tele ~cat:"rule"
        ~args:
          [ ("fired", string_of_int (st.added - before));
            ("round", string_of_int st.round) ]
        ("rule:" ^ prep.head_label) ~start:t0 ~stop:t1
  end;
  if Journal.enabled st.jr && st.added > before then
    Journal.emit st.jr "rule.batch"
      [ ("round", J.Int st.round);
        ("rule", J.Str prep.head_label);
        ("derived", J.Int (st.added - before));
        ("time_s", J.Float (t1 -. t0)) ]

let eval_rule st (prep : prepared) ~delta ~on_new =
  st.cur <- st.ctrs.(prep.rule_id);
  let t0 = Kgm_telemetry.Clock.now () in
  let before = st.added in
  guard_eval prep (fun () ->
      match prep.strat_agg_index with
      | Some agg_i ->
          if delta = None then eval_stratified st prep agg_i ~on_new
      | None ->
          let env = env_create () in
          eval_literals st env prep prep.cbody 0 ~delta
            ~emit:(fun () -> fire st env prep ~on_new));
  finish_rule st prep ~t0 ~before

(* ------------------------------------------------------------------ *)
(* Parallel semi-naive rounds.

   Every round of a semi-naive chase is split into (rule x chunk) work
   items. A delta round drives each rule from every literal whose
   predicate has a delta, chunked over that delta; the first round of a
   chase from scratch drives each rule from exactly one literal,
   chunked over insertion-sequence ranges of its whole relation (one
   driving literal only: the other literals probe the same store, so a
   second one would rediscover every match). Workers match rule bodies
   against the database {e frozen as of the round start} and only
   record candidate head bindings; a sequential merge phase re-fires
   each candidate against the live store: dedup, the restricted-chase
   homomorphism check, labeled-null invention, support and delta
   recording all happen there.

   Merge order: each candidate carries the vector of fact insertion
   sequences of its match, over the written positive-literal positions
   (a delta literal contributes the fact's index within the round's
   delta). A sequential written-order evaluation of the whole delta
   emits matches exactly in lexicographic order of these vectors —
   candidate lists are probed in ascending insertion order, and the
   vector determines the match. So the merge, firing each (rule, delta
   literal) group sorted on the vectors, reproduces that sequential
   emission order independently of chunking, worker count, completion
   schedule, and of the order workers actually evaluated the literals
   in — which frees the planner to evaluate bodies most-selective-first
   without perturbing a single output bit.

   A match that the frozen snapshot misses (its facts were derived
   later in the same round) is re-discovered through the next round's
   delta, so the fixpoint is unchanged. Rules with aggregates are
   order-sensitive, and rules without a positive literal have nothing
   to drive them: both evaluate sequentially against the live store, at
   their program position inside the merge sweep — as does every rule
   of a naive (ABL-2) chase. *)

type candidate = {
  cd_vals : int array;      (* needed_vars binding ids, positionally *)
  cd_key : int array;       (* insertion-seq vector, written Pos order *)
  cd_spill : (int * Value.t) list;
  (* worker-local scratch ids appearing in [cd_vals] with their values,
     in first-use order; the merge re-interns them sequentially and
     rewrites the negative ids before firing *)
}

(* lexicographic; vectors of one (rule, literal) group share a length *)
let compare_candidates a b =
  let ka = a.cd_key and kb = b.cd_key in
  let n = Array.length ka in
  let rec go i =
    if i >= n then 0
    else
      let c = Int.compare ka.(i) kb.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* What a work item's driving literal ranges over. *)
type source =
  | Chunk of Database.ifact array * int * int
      (* the round delta of the literal's predicate (chronological) and
         the [lo, hi) slice of it this item covers *)
  | Range of int * int
      (* insertion sequences [lo, hi) of the literal's predicate, read
         in place from the frozen store *)

type work_item = {
  w_prep : prepared;
  w_lit : int;                   (* index of the driving literal *)
  w_order : int list;            (* literal evaluation order (a plan, or
                                    the written order); the driving
                                    literal leads *)
  w_weight : int;                (* estimated probe volume, for
                                    heaviest-first pool scheduling *)
  w_src : source;
}

let source_bounds = function Chunk (_, lo, hi) | Range (lo, hi) -> (lo, hi)

type work_result = {
  wr_cands : candidate list;  (* emission order *)
  wr_probes : int;
  wr_time : float;
}

(* What a round ranges over. *)
type round_input =
  | Whole
      (* every rule over the whole store: the first round of each
         stratum of a chase from scratch, and every round of a naive
         chase *)
  | Delta of (string, Database.ifact array) Hashtbl.t
      (* per predicate, the facts new since the previous round,
         chronological *)

(* Raised (on the caller domain) when a worker observed cancellation or
   an expired deadline mid-round. Nothing has been merged at that point:
   the whole round's candidates are discarded, so the database is back
   at the previous round boundary — a deterministic state whatever
   subset of work items the workers had managed to evaluate. *)
exception Round_aborted

(* Body evaluation in plan order against the frozen store. Mirrors
   [eval_literals]/[match_atom] exactly on what matches and what counts
   as a probe; additionally records, per positive literal, the insertion
   sequence of the matched fact into [keyv] (at the literal's written
   Pos ordinal), from which the emit callback assembles the candidate.
   [drive pred f] feeds the driving literal's source (facts of [pred])
   to [f] as (sequence, fact) pairs. *)
let eval_planned st env (prep : prepared) ~order ~delta_lit ~drive ~keyv
    ~pos_ord ~emit =
  let body = Array.of_list prep.cbody in
  let rec go = function
    | [] -> emit ()
    | j :: rest -> (
        match body.(j) with
        | CPos a ->
            let positions, key = probe_key env a.ca_args in
            let ord = pos_ord.(j) in
            let try_fact seq (fact : Database.ifact) =
              with_match env a.ca_args fact (fun () ->
                  keyv.(ord) <- seq;
                  go rest)
            in
            if j = delta_lit then
              (* a probe counts the source facts agreeing with the bound
                 positions (the driving literal leads, so only its
                 constants are bound) — what a hash probe of the source
                 would return *)
              drive a.ca_pred (fun seq (fact : Database.ifact) ->
                  if
                    Array.length fact = Array.length a.ca_args
                    && List.for_all2 (fun i id -> fact.(i) = id) positions key
                  then begin
                    st.cur.c_probes <- st.cur.c_probes + 1;
                    try_fact seq fact
                  end)
            else
              st.cur.c_probes <-
                st.cur.c_probes
                + Database.iter_matches_i st.db a.ca_pred positions key
                    try_fact
        | CAgg _ ->
            Kgm_error.reason_error "aggregate rule on the worker pool (engine bug)"
        | lit -> eval_filter st env lit (fun () -> go rest))
  in
  go order

(* Runs on a worker domain: read-only on the frozen database, all
   mutable state (env, counters, trail) is local to the item. *)
let eval_work_item (main : run_state) (w : work_item) : work_result =
  let t0 = Kgm_telemetry.Clock.now () in
  let ctr = fresh_ctr () in
  let st =
    { db = main.db; opts = main.opts; added = 0;
      agg_states = Hashtbl.create 1;
      sup = None;  (* recording happens in the merge *)
      on_agg = None; agg_notes = [];  (* aggregates never run on workers *)
      trail_preds = [||]; trail_facts = [||]; trail_len = 0;
      cand_key = [||]; cand_origin = None;
      sc = Intern.Scratch.create ();
      tele = Kgm_telemetry.null;  (* collectors are not domain-safe *)
      jr = Kgm_telemetry.Journal.null;
      ctrs = [||]; cur = ctr; round = main.round; trip_rule = None }
  in
  let prep = w.w_prep in
  (* written Pos ordinal of each body literal: the slot its matched
     fact's insertion sequence occupies in the sort-key vector *)
  let body = prep.cbody in
  let pos_ord = Array.make (List.length body) (-1) in
  let n_pos = ref 0 in
  List.iteri
    (fun i lit ->
      match lit with
      | CPos _ ->
          pos_ord.(i) <- !n_pos;
          incr n_pos
      | _ -> ())
    body;
  let keyv = Array.make (max 1 !n_pos) 0 in
  let drive pred f =
    match w.w_src with
    | Chunk (facts, lo, hi) ->
        for i = lo to hi - 1 do
          f i facts.(i)
        done
    | Range (lo, hi) -> Database.iter_range st.db pred ~lo ~hi f
  in
  let buf = ref [] in
  let env = env_create () in
  guard_eval prep (fun () ->
      eval_planned st env prep ~order:w.w_order ~delta_lit:w.w_lit ~drive ~keyv
        ~pos_ord
        ~emit:(fun () ->
          let vals =
            Array.map
              (fun v ->
                match env_lookup env v with
                | Some id -> id
                | None -> Kgm_error.reason_error "unbound head variable %s" v)
              prep.needed_vars
          in
          (* scratch ids escaping in the candidate: ship their values so
             the merge can re-intern them *)
          let spill = ref [] in
          Array.iter
            (fun id ->
              if id < 0 && not (List.mem_assoc id !spill) then
                spill := (id, Intern.Scratch.resolve st.sc id) :: !spill)
            vals;
          buf :=
            { cd_vals = vals; cd_key = Array.copy keyv;
              cd_spill = List.rev !spill }
            :: !buf));
  { wr_cands = List.rev !buf; wr_probes = ctr.c_probes;
    wr_time = Kgm_telemetry.Clock.now () -. t0 }

(* Merge phase: rebind a candidate's head variables and fire as usual
   (chase check, null invention, support) against the live store. *)
let fire_candidate st env (prep : prepared) cand ~on_new =
  let mark = env_mark env in
  (* sequential: re-intern the worker's scratch values (in the
     candidate's first-use order — candidates themselves fire in the
     deterministic sorted order, so dictionary growth is deterministic
     too) and rewrite the negative ids *)
  let vals =
    if cand.cd_spill = [] then cand.cd_vals
    else begin
      let remap =
        List.map
          (fun (sid, v) -> (sid, Intern.intern (Database.dict st.db) v))
          cand.cd_spill
      in
      Array.map
        (fun id -> if id < 0 then List.assoc id remap else id)
        cand.cd_vals
    end
  in
  Array.iteri (fun i id -> env_bind env prep.needed_vars.(i) id) vals;
  st.cand_key <- cand.cd_key;
  fire st env prep ~on_new;
  env_undo env mark

(* The literal a whole-store round drives a rule from: with the planner,
   the positive literal over the fewest live facts (ties keep the
   written order); without it, the first positive literal. [None] for
   bodies without a positive literal. The other literals follow in
   written order: over whole relations the planner's per-anchor
   estimates are least reliable, and a greedy order measured worse than
   the written one (exp6's DESCFROM rule: 850 probes vs 697). *)
let driving_literal ~use_planner ~count (r : Rule.rule) =
  let best = ref None in
  List.iteri
    (fun i lit ->
      match lit, !best with
      | Rule.Pos (a : Rule.atom), None -> best := Some (i, a.Rule.pred)
      | Rule.Pos a, Some (_, p)
        when use_planner && count a.Rule.pred < count p ->
          best := Some (i, a.Rule.pred)
      | _ -> ())
    r.Rule.body;
  !best

let eval_round st pool (rules : prepared list) ~input ~use_planner ~cancel
    ~tok_status ~retries ~on_new =
  (* 1. deterministic (rule, literal, chunk) work-item order; results
     are chunking-invariant (the merge sorts each (rule, literal) group
     on insertion-seq vectors), so the chunk size is free to follow the
     pool size for load balancing. One body plan per (rule, driving
     literal), recomputed here from the live cardinalities of this
     round boundary; with the planner off every item evaluates in
     written order behind its driving literal. *)
  let count p = Database.count st.db p in
  let delta_of pred =
    match input with
    | Whole -> None
    | Delta current -> Hashtbl.find_opt current pred
  in
  let plans : (int * int, Planner.plan) Hashtbl.t = Hashtbl.create 16 in
  let driven = Hashtbl.create 16 in  (* rules matched on the pool *)
  let items = ref [] in
  let add_items (prep : prepared) i plan ~len src =
    Hashtbl.replace plans (prep.rule_id, i) plan;
    Hashtbl.replace driven prep.rule_id ();
    let chunk = Kgm_pool.chunk_size_for pool ~len in
    for c = 0 to ((len + chunk - 1) / chunk) - 1 do
      let lo = c * chunk in
      let hi = min len (lo + chunk) in
      items :=
        { w_prep = prep; w_lit = i; w_order = plan.Planner.order;
          w_weight = plan.Planner.cost * (hi - lo); w_src = src lo hi }
        :: !items
    done
  in
  List.iter
    (fun (prep : prepared) ->
      if not prep.has_agg then
        match input with
        | Whole ->
            if st.opts.semi_naive then
              Option.iter
                (fun (i, pred) ->
                  add_items prep i
                    (Planner.written ~delta_lit:i prep.rule)
                    ~len:(count pred)
                    (fun lo hi -> Range (lo, hi)))
                (driving_literal ~use_planner ~count prep.rule)
        | Delta _ ->
            List.iteri
              (fun i lit ->
                match lit with
                | Rule.Pos (a : Rule.atom) ->
                    Option.iter
                      (fun facts ->
                        add_items prep i
                          (if use_planner then
                             Planner.plan_rule ~count ~delta_lit:i prep.rule
                           else Planner.written ~delta_lit:i prep.rule)
                          ~len:(Array.length facts)
                          (fun lo hi -> Chunk (facts, lo, hi)))
                      (delta_of a.Rule.pred)
                | _ -> ())
              prep.rule.Rule.body)
    rules;
  let items = Array.of_list (List.rev !items) in
  if Journal.enabled st.jr then
    Hashtbl.iter
      (fun (rule_id, lit) (p : Planner.plan) ->
        let prep = List.find (fun pr -> pr.rule_id = rule_id) rules in
        Journal.emit st.jr "plan"
          [ ("round", J.Int st.round);
            ("rule", J.Str prep.head_label);
            ("delta_lit", J.Int lit);
            ("cost", J.Int p.Planner.cost);
            ("reordered", J.Bool p.Planner.reordered);
            ("order", J.Arr (List.map (fun i -> J.Int i) p.Planner.order)) ])
      plans;
  if Kgm_telemetry.enabled st.tele && Hashtbl.length plans > 0 then begin
    Kgm_telemetry.count st.tele ~by:(Hashtbl.length plans) "planner.plans";
    let reordered =
      Hashtbl.fold
        (fun _ (p : Planner.plan) n -> if p.Planner.reordered then n + 1 else n)
        plans 0
    in
    if reordered > 0 then
      Kgm_telemetry.count st.tele ~by:reordered "planner.plans.reordered"
  end;
  (* 2. match on the pool against the frozen store. Each worker polls
     the cancellation token per work item; once it trips, remaining
     items are skipped (cheaply, returning no candidates) and the whole
     round is aborted after the batch joins. Worker bodies additionally
     run under a short retry loop so injected transient faults
     ("worker" site) are absorbed instead of killing the run. *)
  let aborted = Atomic.make false in
  let empty_result = { wr_cands = []; wr_probes = 0; wr_time = 0. } in
  let results =
    if Array.length items = 0 then []
    else begin
      (* build exactly the indexes the items will probe: every plan —
         planned or written-order — records its probe patterns along
         its own evaluation order (the driving literal never probes the
         store) *)
      Hashtbl.iter
        (fun _ (p : Planner.plan) ->
          List.iter
            (fun (pred, pat) -> Database.prepare_index st.db pred pat)
            p.Planner.patterns)
        plans;
      Database.freeze st.db;
      let t0 = Kgm_telemetry.Clock.now () in
      let results =
        Fun.protect
          ~finally:(fun () -> Database.thaw st.db)
          (fun () ->
            Kgm_pool.run_weighted pool
              ~weights:(Array.map (fun w -> w.w_weight) items)
              (Array.map
                 (fun w () ->
                   if tok_status () <> `Ok then begin
                     Atomic.set aborted true;
                     empty_result
                   end
                   else
                     Kgm_resilience.Retry.with_backoff ~attempts:5
                       ~base_s:0.0005 ~cancel
                       ~on_retry:(fun ~attempt exn ->
                         Atomic.incr retries;
                         (* cross-domain emit: the journal serializes *)
                         if Journal.enabled st.jr then
                           Journal.emit st.jr "worker.retry"
                             [ ("round", J.Int st.round);
                               ("attempt", J.Int attempt);
                               ("error", J.Str (Printexc.to_string exn)) ])
                       (fun () ->
                         Kgm_resilience.Faults.inject "worker";
                         eval_work_item st w))
                 items))
      in
      if Kgm_telemetry.enabled st.tele then
        Kgm_telemetry.record_span st.tele ~cat:"round"
          ~args:
            [ ("items", string_of_int (Array.length items));
              ("jobs", string_of_int (Kgm_pool.size pool)) ]
          "round.match" ~start:t0 ~stop:(Kgm_telemetry.Clock.now ());
      results
    end
  in
  if Atomic.get aborted then raise Round_aborted;
  (* results grouped per (rule, driving literal), each group released
     as soon as the sweep has fired it *)
  let groups : (int * int, work_result list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun k (r : work_result) ->
      let w = items.(k) in
      if Journal.enabled st.jr then begin
        let lo, hi = source_bounds w.w_src in
        Journal.emit st.jr "chunk"
          [ ("round", J.Int st.round);
            ("rule", J.Str w.w_prep.head_label);
            ("delta_lit", J.Int w.w_lit);
            ("offset", J.Int lo);
            ("size", J.Int (hi - lo));
            ("candidates", J.Int (List.length r.wr_cands));
            ("probes", J.Int r.wr_probes);
            ("time_s", J.Float r.wr_time) ]
      end;
      let key = (w.w_prep.rule_id, w.w_lit) in
      match Hashtbl.find_opt groups key with
      | Some rs -> rs := r :: !rs
      | None -> Hashtbl.add groups key (ref [ r ]))
    results;
  (* 3. sequential merge sweep in program order *)
  List.iter
    (fun (prep : prepared) ->
      match input with
      | Whole when not (Hashtbl.mem driven prep.rule_id) ->
          eval_rule st prep ~delta:None ~on_new
      | Delta _ when prep.has_agg ->
          (* order-sensitive: evaluate directly against the live store,
             in written order (the delta still probes through a hash
             index) *)
          List.iteri
            (fun i lit ->
              match lit with
              | Rule.Pos (a : Rule.atom) ->
                  Option.iter
                    (fun facts ->
                      eval_rule st prep ~delta:(Some (i, delta_group facts))
                        ~on_new)
                    (delta_of a.Rule.pred)
              | _ -> ())
            prep.rule.Rule.body
      | _ ->
          let ctr = st.ctrs.(prep.rule_id) in
          st.cur <- ctr;
          let t0 = Kgm_telemetry.Clock.now () in
          let before = st.added in
          let env = env_create () in
          (* per driving literal (ascending): gather every chunk's
             candidates and fire them sorted on the insertion-seq
             vectors — the written-order emission sequence over the
             whole source, independent of chunking and of the plan *)
          List.iteri
            (fun i _ ->
              match Hashtbl.find_opt groups (prep.rule_id, i) with
              | Some rs ->
                  Hashtbl.remove groups (prep.rule_id, i);
                  let cands = ref [] in
                  List.iter
                    (fun (r : work_result) ->
                      ctr.c_probes <- ctr.c_probes + r.wr_probes;
                      ctr.c_time <- ctr.c_time +. r.wr_time;
                      cands := List.rev_append r.wr_cands !cands)
                    !rs;
                  let arr = Array.of_list !cands in
                  cands := [];
                  Array.sort compare_candidates arr;
                  (* recorded parents are read back from the seq
                     vectors: the driving literal's sequence indexes
                     its source, every other one the store *)
                  if Option.is_some st.sup then begin
                    let read j = function
                      | CPos a -> (
                          match input with
                          | Delta _ when j = i ->
                              Some (Array.get (Option.get (delta_of a.ca_pred)))
                          | _ -> Some (Database.nth_i st.db a.ca_pred))
                      | _ -> None
                    in
                    st.cand_origin <-
                      Some
                        { o_rule = prep.rid;
                          o_ppreds = prep.pos_preds;
                          o_read =
                            Array.of_list
                              (List.filter_map Fun.id (List.mapi read prep.cbody)) }
                  end;
                  Array.iter (fun c -> fire_candidate st env prep c ~on_new) arr;
                  st.cand_origin <- None
              | None -> ())
            prep.cbody;
          finish_rule st prep ~t0 ~before)
    rules

(* ------------------------------------------------------------------ *)
(* Checkpoint/resume.

   At configurable round intervals (and at any clean limit stop) the
   engine serializes its complete semi-naive state to a versioned
   snapshot: the fact store in per-predicate insertion order, the
   current delta, the global null counter, per-rule counters, aggregate
   states, the derivation support, and the (stratum, round) position. Resuming
   restores all of it and re-enters the strata loop at the saved
   position, so a resumed run replays the exact rounds an uninterrupted
   run would have executed — facts, null numbering and per-rule counters
   are bit-for-bit identical, at every [jobs] value (the merge order is
   schedule-independent, see above). *)

type checkpoint = {
  ck_dir : string;
  ck_every : int;   (** write a snapshot every [ck_every] completed rounds *)
  ck_label : string;
  ck_keep : int;    (** generations retained after each write; 0 = all *)
}

let default_checkpoint_every = 8

let checkpoint ?(every = default_checkpoint_every) ?(keep = 0)
    ?(label = "chase") dir =
  { ck_dir = dir; ck_every = max 1 every; ck_label = label; ck_keep = keep }

(* v5: the per-rule counters carry [c_head_probes]. v4 (interned
   support, as a [support_image] whose ids index [p_dict] like the
   facts do), v3 (interned facts, value-keyed support) and v2 (boxed
   value facts, no dictionary) snapshots are still read, their counters
   widened and their supports re-interned on load; v1 snapshots are
   rejected by [Snapshot.load]'s version check *)
let ck_version = 5
let ck_kind label = "chase-" ^ label

let latest_checkpoint ?(label = "chase") dir =
  Kgm_resilience.Snapshot.latest ~dir ~kind:(ck_kind label)

(* What a snapshot keeps of the support: each fact's entries verbatim
   (explanations stay identical across resume), null carriers and
   suppressed firings; reverse edges and null origins are rebuilt. *)
type support_image = {
  si_entries : (FactId.t * support_entry list) list;
  si_null_facts : (int * FactId.t list) list;
  si_suppressed : suppressed_firing list;  (* reverse recording order *)
}

let support_image sup =
  let ix = support_index sup in
  { si_entries = FactTbl.fold (fun k r acc -> (k, !r) :: acc) ix.sx_entries [];
    si_null_facts = Hashtbl.fold (fun n r acc -> (n, !r) :: acc) ix.sx_null_facts [];
    si_suppressed = ix.sx_suppressed }

(* Re-index a loaded image into the caller's (normally fresh) support,
   each fact's entries oldest first so its list comes out verbatim;
   [fid] re-encodes the image's ids against [db]. *)
let support_absorb sup db ~fid img =
  bind_support sup db;
  let fids = List.map fid in
  List.iter
    (fun (fact, entries) ->
      List.iter
        (fun e ->
          index_derivation sup (fid fact) ~is_new:false
            { e with se_parents = fids e.se_parents })
        (List.rev entries))
    img.si_entries;
  List.iter
    (fun (n, facts) ->
      List.iter (fun f -> push sup.sup_ix.sx_null_facts n (fid f)) (List.rev facts))
    img.si_null_facts;
  List.iter
    (fun sf ->
      index_suppressed sup
        { sf with sf_parents = fids sf.sf_parents; sf_image = fids sf.sf_image })
    (List.rev img.si_suppressed)

(* Marshal-friendly image of the loop state; v3, v4 and v5 differ only
   in the support's and the counters' form. Facts and deltas are kept in chronological
   (insertion) order so replaying them through [Database.add]
   reproduces per-predicate order exactly. *)
type ('sup, 'ctr) payload = {
  p_fingerprint : string;  (* digest of the program text: a checkpoint
                              only resumes the program that wrote it *)
  p_stratum : int;
  p_round0_done : bool;    (* false = the stratum's whole-store first
                              round is pending *)
  p_rounds : int;
  p_deltas : int list;     (* reverse chronological, as the loop keeps it *)
  p_added : int;
  p_nulls : int;           (* global null counter *)
  p_dict : Value.t array;  (* interned values in id order; every id in
                              the payload indexes into it *)
  p_facts : (string * Database.ifact list) list;
  p_delta : (string * Database.ifact list) list;
  p_ctrs : 'ctr array;
  p_agg : (int * agg_state) list;
  p_prov : unit option;
      (* the retired first-derivation table: always written [None] and
         ignored on read (Marshal is shape-based and the field is never
         inspected, so older snapshots carrying one still load) *)
  p_sup : 'sup option;  (* so a resumed run stays maintainable *)
}

(* The value-keyed support of v2/v3 snapshots, mirrored structurally (a
   record marshals like a tuple, a [Hashtbl.Make] table like a
   [Hashtbl.t]): entries (rule, parents, nulls) per fact, reverse
   edges, null origins, null carriers, suppressed firings (rule,
   parents, image) and their keys. [unit] fields are never inspected. *)
type v3_fact = string * Database.fact

type v3_support =
  (string * Value.t list, (int * v3_fact list * int list) list ref) Hashtbl.t
  * unit * unit
  * (int, v3_fact list ref) Hashtbl.t
  * (int * v3_fact list * v3_fact list) list
  * unit

let image_of_v3 db ((entries, _, _, null_facts, suppressed, _) : v3_support) =
  let fids = List.map (fun (p, f) -> (p, Database.intern_fact db f)) in
  { si_entries =
      Hashtbl.fold
        (fun (p, vals) r acc ->
          ( (p, Database.intern_fact db (Array.of_list vals)),
            List.map
              (fun (se_rule, ps, se_nulls) -> { se_rule; se_parents = fids ps; se_nulls })
              !r )
          :: acc)
        entries [];
    si_null_facts = Hashtbl.fold (fun n r acc -> (n, fids !r) :: acc) null_facts [];
    si_suppressed =
      List.map
        (fun (sf_rule, ps, img) -> { sf_rule; sf_parents = fids ps; sf_image = fids img })
        suppressed }

(* The per-rule counters of v2–v4 snapshots, before [c_head_probes]
   was added: Marshal is shape-based, so they are read through this
   7-field mirror and widened, never as a [rule_ctr]. *)
type ctr_v4 = {
  d_firings : int;
  d_matches : int;
  d_probes : int;
  d_nulls : int;
  d_hits : int;
  d_misses : int;
  d_time : float;
}

let ctrs_of_v4 =
  Array.map (fun d ->
      { c_firings = d.d_firings; c_matches = d.d_matches; c_probes = d.d_probes;
        c_nulls = d.d_nulls; c_hits = d.d_hits; c_misses = d.d_misses;
        c_head_probes = 0; c_time = d.d_time })

(* Structural mirror of the v2 payload (facts as boxed value arrays, no
   dictionary); the loader re-interns the values. *)
type ck_payload_v2 = {
  q_fingerprint : string;
  q_stratum : int;
  q_round0_done : bool;
  q_rounds : int;
  q_deltas : int list;
  q_added : int;
  q_nulls : int;
  q_facts : (string * Database.fact list) list;
  q_delta : (string * Database.fact list) list;
  q_ctrs : ctr_v4 array;
  q_agg : (int * agg_state) list;
  q_prov : unit option;  (* as [p_prov] *)
  q_sup : v3_support option;
}

let program_fingerprint program =
  Digest.to_hex (Digest.string (Rule.program_to_string program))

(* Load a snapshot and normalize it against [db]'s dictionary: v3–v5
   ids are remapped through the serialized dictionary, v2 value facts
   are interned directly, and v2/v3 value-keyed supports are interned
   too. Either way the returned payload's ids are valid in [db] and
   [p_dict] is spent, and v2–v4 counters are widened. Any other version
   falls through to the strict v5 load, whose Storage error names both
   versions. *)
let load_checkpoint db ~label ~fingerprint path =
  let kind = ck_kind label in
  let load version = Kgm_resilience.Snapshot.load ~kind ~version ~path in
  let remapped (p : (_, _) payload) =
    let dict = Database.dict db in
    let remap = Array.map (fun v -> Intern.intern dict v) p.p_dict in
    let rf f = Array.map (fun id -> remap.(id)) f in
    let rfl = List.map (fun (pr, fl) -> (pr, List.map rf fl)) in
    (rf, { p with p_dict = [||]; p_facts = rfl p.p_facts; p_delta = rfl p.p_delta })
  in
  (* the payload, and how its support's ids map into [db] *)
  let p, fid =
    match Kgm_resilience.Snapshot.peek_version ~kind ~path with
    | 2 ->
        let (q : ck_payload_v2) = load 2 in
        let inf = List.map (Database.intern_fact db) in
        ( { p_fingerprint = q.q_fingerprint;
            p_stratum = q.q_stratum;
            p_round0_done = q.q_round0_done;
            p_rounds = q.q_rounds;
            p_deltas = q.q_deltas;
            p_added = q.q_added;
            p_nulls = q.q_nulls;
            p_dict = [||];
            p_facts = List.map (fun (pr, fl) -> (pr, inf fl)) q.q_facts;
            p_delta = List.map (fun (pr, fl) -> (pr, inf fl)) q.q_delta;
            p_ctrs = ctrs_of_v4 q.q_ctrs;
            p_agg = q.q_agg;
            p_prov = None;
            p_sup = Option.map (image_of_v3 db) q.q_sup },
          Fun.id )
    | 3 ->
        let _, p = remapped (load 3 : (v3_support, ctr_v4) payload) in
        ( { p with p_sup = Option.map (image_of_v3 db) p.p_sup;
                   p_ctrs = ctrs_of_v4 p.p_ctrs },
          Fun.id )
    | 4 ->
        let rf, p = remapped (load 4 : (support_image, ctr_v4) payload) in
        ({ p with p_ctrs = ctrs_of_v4 p.p_ctrs }, fun (pr, f) -> (pr, rf f))
    | _ ->
        let rf, p =
          remapped (load ck_version : (support_image, rule_ctr) payload)
        in
        (p, fun (pr, f) -> (pr, rf f))
  in
  if p.p_fingerprint <> fingerprint then
    Kgm_error.validate_error
      "checkpoint %s was written by a different program (fingerprint \
       mismatch)"
      path;
  (p, fid)

(* ------------------------------------------------------------------ *)
(* The chase loop.

   [run] and [run_delta] are one restricted chase: the strata in order,
   each iterated in rounds to its fixpoint. They differ only in what a
   stratum's first round ranges over — the whole store for a chase from
   scratch, the seeds plus this pass's lower-strata derivations for a
   maintenance pass — in [run]'s checkpoint/resume, and in
   [run_delta]'s aggregate seeding and [on_new] observer. *)

type first_round =
  | From_store
  | From_seeds of (string * Database.ifact list) list

let chase ~first ~options ~support ~telemetry ~journal ~cancel ~checkpoint
    ~resume_from ~on_new ~on_agg ~rule_ids ~agg_init (program : Rule.program)
    db =
  let seeded = match first with From_seeds _ -> true | From_store -> false in
  let mode = if seeded then "delta" else "chase" in
  Kgm_telemetry.with_span telemetry ~cat:"engine"
    ~args:[ ("rules", string_of_int (List.length program.Rule.rules)) ]
    (if seeded then "engine.run_delta" else "engine.run")
  @@ fun () ->
  let t0 = Kgm_telemetry.Clock.now () in
  (* [options.provenance] retains the support graph even when the caller
     did not pass one; it is returned in [stats.support] *)
  let support =
    match support with
    | Some _ -> support
    | None -> if options.provenance then Some (create_support ()) else None
  in
  Option.iter (fun sup -> bind_support sup db) support;
  (match Analysis.safety_report program with
   | [] -> ()
   | errs ->
       Kgm_error.validate_error "unsafe program:@ %s" (String.concat "; " errs));
  if options.check_wardedness then begin
    let report = Analysis.wardedness program in
    if not report.Analysis.warded then
      Kgm_error.validate_error "program is not warded: %s"
        (String.concat "; " report.Analysis.violations)
  end;
  let analysis = Analysis.stratify program in
  let fingerprint = program_fingerprint program in
  (* a [deadline_s] option composes with whatever token the caller
     passed (which may carry its own deadline) *)
  let deadline_tok =
    match options.deadline_s with
    | Some d -> Kgm_resilience.Token.create ~deadline_s:d ()
    | None -> Kgm_resilience.Token.none
  in
  let tok_status () =
    match Kgm_resilience.Token.status cancel with
    | `Ok -> Kgm_resilience.Token.status deadline_tok
    | s -> s
  in
  let resume, fid =
    match resume_from with
    | None -> (None, Fun.id)
    | Some path ->
        let p, fid =
          load_checkpoint db ~fingerprint path
            ~label:(match checkpoint with Some c -> c.ck_label | None -> "chase")
        in
        (Some p, fid)
  in
  (* a maintenance pass runs over a materialized store: the program's
     facts are not loaded again *)
  if not seeded then
    List.iter
      (fun (pred, args) -> ignore (Database.add db pred (Array.of_list args)))
      program.Rule.facts;
  let n_rules = List.length program.Rule.rules in
  let st =
    { db; opts = options; added = 0; agg_states = Hashtbl.create 16;
      sup = support; on_agg; agg_notes = [];
      trail_preds = [||]; trail_facts = [||]; trail_len = 0;
      cand_key = [||]; cand_origin = None;
      sc = Intern.Scratch.create ();
      tele = telemetry; jr = journal;
      ctrs = Array.init (max 1 n_rules) (fun _ -> fresh_ctr ());
      cur = fresh_ctr ();
      round = 0; trip_rule = None }
  in
  (* counting maintenance: start monotonic aggregates from the caller's
     saturated accumulators instead of empty groups, so a delta pass
     neither re-counts old contributions nor misses thresholds already
     crossed *)
  List.iter (fun (id, s) -> Hashtbl.replace st.agg_states id s) agg_init;
  (match resume with
   | None -> ()
   | Some p ->
       (* replay the snapshot: facts in insertion order (dedup against
          whatever the caller pre-loaded), exact null counter, counters,
          aggregate and support state *)
       List.iter
         (fun (pred, facts) ->
           List.iter (fun f -> ignore (Database.add_i db pred f)) facts)
         p.p_facts;
       Atomic.set global_null_counter p.p_nulls;
       st.added <- p.p_added;
       Array.iteri
         (fun i c -> if i < Array.length st.ctrs then st.ctrs.(i) <- c)
         p.p_ctrs;
       List.iter (fun (id, s) -> Hashtbl.replace st.agg_states id s) p.p_agg;
       (match support, p.p_sup with
        | Some sup, Some img -> support_absorb sup db ~fid img
        | _ -> ()));
  if Journal.enabled journal then
    Journal.emit journal "run.start"
      ([ ("mode", J.Str mode);
         ("rules", J.Int n_rules);
         ("strata", J.Int (List.length analysis.Analysis.strata));
         ("jobs", J.Int options.jobs);
         ("planner", J.Bool options.planner);
         ("provenance", J.Bool (Option.is_some support)) ]
      @
      match first with
      | From_store -> [ ("resumed", J.Bool (Option.is_some resume)) ]
      | From_seeds seed ->
          [ ( "seed",
              J.Int
                (List.fold_left (fun acc (_, fs) -> acc + List.length fs) 0 seed)
            ) ]);
  let prepared =
    List.mapi
      (fun i r ->
        prepare
          ?rid:(Option.map (fun a -> a.(i)) rule_ids)
          (Database.dict db) i
          (if options.reorder_body then reorder_rule ~db r else r))
      program.Rule.rules
  in
  let rule_strata = Analysis.rule_strata analysis program in
  let n_strata = List.length analysis.Analysis.strata in
  if Kgm_telemetry.enabled telemetry && options.planner then begin
    Kgm_telemetry.count telemetry ~by:n_strata "planner.strata";
    let nrec =
      Array.fold_left
        (fun acc r -> if r then acc + 1 else acc)
        0 analysis.Analysis.recursive
    in
    if nrec > 0 then
      Kgm_telemetry.count telemetry ~by:nrec "planner.strata.recursive"
  end;
  let rounds = ref (match resume with Some p -> p.p_rounds | None -> 0) in
  (* per-round delta sizes, reverse chronological *)
  let deltas = ref (match resume with Some p -> p.p_deltas | None -> []) in
  let start_stratum = match resume with Some p -> p.p_stratum | None -> 0 in
  let retries = Atomic.make 0 in
  let cks_written = ref 0 and cks_failed = ref 0 in
  let last_ck = ref None in
  let write_checkpoint ~stratum ~round0_done delta =
    match checkpoint with
    | None -> ()
    | Some cfg ->
        let payload =
          { p_fingerprint = fingerprint;
            p_stratum = stratum;
            p_round0_done = round0_done;
            p_rounds = !rounds;
            p_deltas = !deltas;
            p_added = st.added;
            p_nulls = Atomic.get global_null_counter;
            p_dict = Intern.export (Database.dict db);
            p_facts =
              List.map
                (fun pred -> (pred, Database.facts_i db pred))
                (Database.predicates db);
            p_delta =
              Hashtbl.fold (fun pred l acc -> (pred, List.rev !l) :: acc) delta []
              |> List.sort compare;
            p_ctrs = st.ctrs;
            p_agg =
              Hashtbl.fold (fun id s acc -> (id, s) :: acc) st.agg_states []
              |> List.sort compare;
            p_prov = None;
            p_sup = Option.map support_image st.sup }
        in
        let path =
          Kgm_resilience.Snapshot.path ~dir:cfg.ck_dir
            ~kind:(ck_kind cfg.ck_label) ~seq:!rounds
        in
        (* graceful degradation: a transient write fault is retried, a
           persistent one costs only this snapshot, never the chase *)
        (try
           Kgm_resilience.Retry.with_backoff ~attempts:3 ~base_s:0.002
             (fun () ->
               Kgm_resilience.Snapshot.save ~kind:(ck_kind cfg.ck_label)
                 ~version:ck_version ~path payload);
           incr cks_written;
           last_ck := Some path;
           (* rotate right after a successful write: the newest
              retained generation is the one we just renamed into
              place, so a recovery always has a valid file to start
              from *)
           if cfg.ck_keep > 0 then
             ignore
               (Kgm_resilience.Snapshot.gc ~dir:cfg.ck_dir
                  ~kind:(ck_kind cfg.ck_label) ~keep:cfg.ck_keep);
           if Journal.enabled journal then
             Journal.emit journal "checkpoint.write"
               [ ("round", J.Int !rounds);
                 ("stratum", J.Int stratum);
                 ("path", J.Str path) ]
         with _ ->
           incr cks_failed;
           if Journal.enabled journal then
             Journal.emit journal "checkpoint.fail"
               [ ("round", J.Int !rounds); ("path", J.Str path) ])
  in
  let stopped = ref None in
  (* maintenance deltas are tiny relative to the saturated store, so a
     seeded pass applies the delta-first selectivity plans whatever
     [options.planner] says: with written-order plans it would probe
     the full closure once per seed fact (the BENCH_incremental 0.3x
     regression). Planning is pure scheduling, so the ablation contrast
     is confined to [run]. *)
  let use_planner = options.planner || seeded in
  (* everything a seeded pass derived, chronological across strata: part
     of the first round of every later stratum (a whole-store first
     round covers it by itself) *)
  let derived : (string * Database.ifact) list ref = ref [] in
  let add_fact tbl pred fact =
    match Hashtbl.find_opt tbl pred with
    | Some l -> l := fact :: !l
    | None -> Hashtbl.add tbl pred (ref [ fact ])
  in
  (* one pool for the whole run; with jobs = 1 it spawns no domains and
     Kgm_pool.run degenerates to an inline loop *)
  let pool = Kgm_pool.create (max 1 options.jobs) in
  Fun.protect ~finally:(fun () -> Kgm_pool.shutdown pool) @@ fun () ->
  (try
     for s = start_stratum to n_strata - 1 do
       let rules_here =
         List.filter (fun (p : prepared) -> rule_strata.(p.rule_id) = s) prepared
       in
       if rules_here <> [] then begin
         Kgm_telemetry.with_span telemetry ~cat:"engine"
           ~args:[ ("rules", string_of_int (List.length rules_here)) ]
           (Printf.sprintf "stratum:%d" s)
         @@ fun () ->
         let in_stratum =
           match List.nth_opt analysis.Analysis.strata s with
           | Some preds -> preds
           | None -> []
         in
         (* the stratum's derivations of the current round: the input
            of the next one *)
         let delta : (string, Database.ifact list ref) Hashtbl.t =
           Hashtbl.create 8
         in
         let record pred fact =
           (match on_new with Some f -> f pred fact | None -> ());
           if seeded then derived := (pred, fact) :: !derived;
           if List.mem pred in_stratum then add_fact delta pred fact
         in
         let delta_size () =
           Hashtbl.fold (fun _ l acc -> acc + List.length !l) delta 0
         in
         let chronological tbl =
           let out = Hashtbl.create 8 in
           Hashtbl.iter
             (fun pred l -> Hashtbl.add out pred (Array.of_list (List.rev !l)))
             tbl;
           out
         in
         let first_done = ref false in
         (match resume with
          | Some p when s = p.p_stratum ->
              first_done := p.p_round0_done;
              List.iter
                (fun (pred, facts) ->
                  Hashtbl.replace delta pred (ref (List.rev facts)))
                p.p_delta
          | _ -> ());
         let recursive_stratum =
           s < Array.length analysis.Analysis.recursive
           && analysis.Analysis.recursive.(s)
         in
         (* what the next round ranges over; [None] at the stratum's
            fixpoint. Stratification dividend: a non-recursive stratum
            is an SCC group with no internal dependency edge, so none of
            its rules reads a predicate derived in this stratum — a
            second round could only rediscover first-round matches.
            Under planned semi-naive evaluation that round derives
            nothing, so it is skipped outright. (Naive mode
            re-evaluates everything each round and is left untouched.) *)
         let next_input () =
           if not !first_done then
             match first with
             | From_store -> Some Whole
             | From_seeds seed ->
                 (* the caller's seeds plus the lower strata's
                    derivations of this pass *)
                 let tbl = Hashtbl.create 8 in
                 List.iter
                   (fun (pred, facts) -> List.iter (add_fact tbl pred) facts)
                   seed;
                 List.iter
                   (fun (pred, fact) -> add_fact tbl pred fact)
                   (List.rev !derived);
                 if Hashtbl.length tbl = 0 then None
                 else Some (Delta (chronological tbl))
           else if Hashtbl.length delta = 0 then None
           else if use_planner && options.semi_naive && not recursive_stratum
           then begin
             if Kgm_telemetry.enabled telemetry then
               Kgm_telemetry.count telemetry "planner.rounds.skipped";
             None
           end
           else if options.semi_naive then Some (Delta (chronological delta))
           else Some Whole
         in
         (* limit checks happen only here, at clean round boundaries;
            the "round" fault site models a crash at exactly this point *)
         let stop_on_token () =
           match tok_status () with
           | `Cancelled -> raise (Stop_chase (`Cancelled, true))
           | `Deadline -> raise (Stop_chase (`Deadline, true))
           | `Ok -> ()
         in
         let boundary_check () =
           Kgm_resilience.Faults.inject "round";
           stop_on_token ();
           if !rounds >= options.max_rounds then
             raise (Stop_chase (`Rounds, true))
         in
         try
           let input = ref (next_input ()) in
           while Option.is_some !input do
             boundary_check ();
             incr rounds;
             st.round <- !rounds;
             if Journal.enabled journal then
               Journal.emit journal "round.start"
                 [ ("stratum", J.Int s); ("round", J.Int !rounds) ];
             let pending = Hashtbl.copy delta in
             Hashtbl.reset delta;
             (try
                Kgm_telemetry.with_span telemetry ~cat:"round" "round"
                  (fun () ->
                    eval_round st pool rules_here ~input:(Option.get !input)
                      ~use_planner ~cancel ~tok_status ~retries
                      ~on_new:record)
              with Round_aborted ->
                (* the aborted round never happened: restore its input
                   delta and stop at the previous boundary *)
                decr rounds;
                Hashtbl.reset delta;
                Hashtbl.iter (Hashtbl.replace delta) pending;
                stop_on_token ();
                raise (Stop_chase (`Deadline, true)));
             first_done := true;
             deltas := delta_size () :: !deltas;
             if Journal.enabled journal then
               Journal.emit journal "round.end"
                 [ ("stratum", J.Int s);
                   ("round", J.Int !rounds);
                   ("delta", J.Int (delta_size ()));
                   ("facts", J.Int (Database.total db)) ];
             (match checkpoint with
              | Some cfg when !rounds mod cfg.ck_every = 0 ->
                  write_checkpoint ~stratum:s ~round0_done:true delta
              | _ -> ());
             input := next_input ()
           done
         with Stop_chase (l, clean) ->
           (* a clean stop is a round boundary: capture it so a later
              [~resume_from] continues exactly where this run stopped *)
           if clean then
             write_checkpoint ~stratum:s ~round0_done:!first_done delta;
           raise (Stop_chase (l, clean))
       end
     done
   with Stop_chase (l, clean) ->
     stopped := Some l;
     if Journal.enabled journal then
       Journal.emit journal "limit.stop"
         [ ("limit", J.Str (limit_name l));
           ("clean", J.Bool clean);
           ("round", J.Int !rounds) ]);
  let per_rule =
    List.map
      (fun (prep : prepared) ->
        let c = st.ctrs.(prep.rule_id) in
        { rs_id = prep.rule_id;
          rs_rule = prep.rule_text;
          rs_label = prep.head_label;
          rs_firings = c.c_firings;
          rs_matches = c.c_matches;
          rs_probes = c.c_probes;
          rs_nulls = c.c_nulls;
          rs_chase_hits = c.c_hits;
          rs_chase_misses = c.c_misses;
          rs_head_probes = c.c_head_probes;
          rs_time_s = c.c_time })
      prepared
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 per_rule in
  let stats =
    { rounds = !rounds;
      new_facts = st.added;
      elapsed_s = Kgm_telemetry.Clock.now () -. t0;
      delta_sizes = List.rev !deltas;
      nulls_invented = sum (fun r -> r.rs_nulls);
      chase_hits = sum (fun r -> r.rs_chase_hits);
      chase_misses = sum (fun r -> r.rs_chase_misses);
      per_rule;
      stopped = !stopped;
      support = st.sup }
  in
  if Journal.enabled journal then
    Journal.emit journal "run.end"
      [ ("mode", J.Str mode);
        ("rounds", J.Int stats.rounds);
        ("new_facts", J.Int stats.new_facts);
        ("facts", J.Int (Database.total db));
        ("nulls", J.Int stats.nulls_invented);
        ("elapsed_s", J.Float stats.elapsed_s);
        ( "stopped",
          match stats.stopped with
          | Some l -> J.Str (limit_name l)
          | None -> J.Null ) ];
  if Kgm_telemetry.enabled telemetry then begin
    Kgm_telemetry.count telemetry ~by:stats.new_facts "engine.facts.new";
    Kgm_telemetry.count telemetry ~by:stats.rounds "engine.rounds";
    Kgm_telemetry.count telemetry ~by:stats.nulls_invented
      "engine.nulls.invented";
    Kgm_telemetry.count telemetry ~by:stats.chase_hits "engine.chase.hits";
    Kgm_telemetry.count telemetry ~by:stats.chase_misses "engine.chase.misses";
    Kgm_telemetry.count telemetry
      ~by:(List.fold_left (fun acc r -> acc + r.rs_head_probes) 0 per_rule)
      "engine.chase.head_candidates";
    if !cks_written > 0 then
      Kgm_telemetry.count telemetry ~by:!cks_written
        "resilience.checkpoints.written";
    if !cks_failed > 0 then
      Kgm_telemetry.count telemetry ~by:!cks_failed
        "resilience.checkpoints.failed";
    let r = Atomic.get retries in
    if r > 0 then
      Kgm_telemetry.count telemetry ~by:r "resilience.worker.retries";
    match stats.stopped with
    | Some l -> Kgm_telemetry.count telemetry ("engine.stopped." ^ limit_name l)
    | None -> ()
  end;
  (match !stopped, options.on_limit with
   | Some l, `Raise ->
       let ctx =
         (match st.trip_rule with Some r -> [ ("rule", r) ] | None -> [])
         @ [ ("round", string_of_int !rounds) ]
         @ (match !last_ck with
            | Some p -> [ ("checkpoint", p) ]
            | None -> [])
       in
       (match l with
        | `Facts ->
            Kgm_error.reason_error_ctx ctx
              "fact budget exceeded (%d facts): non-terminating chase?"
              options.max_facts
        | `Rounds -> Kgm_error.reason_error_ctx ctx "round budget exceeded"
        | `Deadline -> Kgm_error.reason_error_ctx ctx "deadline exceeded"
        | `Cancelled ->
            Kgm_error.reason_error_ctx
              (("interrupted", "cancelled") :: ctx)
              "interrupted")
   | _ -> ());
  stats

let run ?(options = default_options) ?support
    ?(telemetry = Kgm_telemetry.null)
    ?(journal = Kgm_telemetry.Journal.null)
    ?(cancel = Kgm_resilience.Token.none) ?checkpoint ?resume_from ?on_agg
    ?rule_ids program db =
  chase ~first:From_store ~options ~support ~telemetry ~journal ~cancel
    ~checkpoint ~resume_from ~on_new:None ~on_agg ~rule_ids ~agg_init:[]
    program db

(* Seeded pass for incremental maintenance: [db] holds a chase fixpoint
   plus a batch of new facts, and [seed] lists exactly the facts new
   since that fixpoint. Every stratum's first round ranges over the
   seeds plus what earlier strata of this pass derived, so under
   semi-naive completeness the pass derives precisely the consequences
   of the seeds, at a cost proportional to the delta. *)
let run_delta ?(options = default_options) ?support
    ?(telemetry = Kgm_telemetry.null)
    ?(journal = Kgm_telemetry.Journal.null)
    ?(cancel = Kgm_resilience.Token.none) ?on_new ?on_agg ?rule_ids
    ?(agg_init = []) program db ~seed =
  chase ~first:(From_seeds seed) ~options ~support ~telemetry ~journal ~cancel
    ~checkpoint:None ~resume_from:None ~on_new ~on_agg ~rule_ids ~agg_init
    program db

(* Human-readable planning report: what [run] would decide for
   [program] over the current contents of [db] — the strata in
   execution order with their recursion flags, and for every rule the
   driving literal and join order of its whole-store first round, plus,
   in a recursive stratum, the join order chosen for each in-stratum
   delta literal. Cardinalities are read live from [db], so load the
   input facts before asking for the report. *)
let pp_plan_report ?(options = default_options) ppf (program : Rule.program) db
    =
  let analysis = Analysis.stratify program in
  let rule_strata = Analysis.rule_strata analysis program in
  let count = Database.count db in
  List.iteri
    (fun s preds ->
      let recursive =
        s < Array.length analysis.Analysis.recursive
        && analysis.Analysis.recursive.(s)
      in
      Format.fprintf ppf "stratum %d%s: %s@." s
        (if recursive then " (recursive)" else "")
        (String.concat ", " preds);
      List.iteri
        (fun k (r : Rule.rule) ->
          if rule_strata.(k) = s then begin
            let r = if options.reorder_body then reorder_rule ~db r else r in
            let pp_plan label i plan =
              Format.fprintf ppf "    %s: %a@." label
                (Planner.pp ~delta_lit:i r) plan
            in
            let has_agg =
              List.exists (function Rule.Agg _ -> true | _ -> false) r.Rule.body
            in
            Format.fprintf ppf "  %a@." Rule.pp_rule r;
            if not has_agg then
              Option.iter
                (fun (i, _) ->
                  pp_plan "first round" i (Planner.written ~delta_lit:i r))
                (driving_literal ~use_planner:options.planner ~count r);
            if not recursive then
              Format.fprintf ppf "    single round (non-recursive stratum)@."
            else if has_agg then
              Format.fprintf ppf
                "    written order (aggregate rule: emission order is \
                 semantic)@."
            else
              List.iteri
                (fun i lit ->
                  match lit with
                  | Rule.Pos (a : Rule.atom) when List.mem a.Rule.pred preds ->
                      pp_plan
                        (Printf.sprintf "delta %s[%d]" a.Rule.pred i)
                        i
                        (if options.planner then
                           Planner.plan_rule ~count ~delta_lit:i r
                         else Planner.written ~delta_lit:i r)
                  | _ -> ())
                r.Rule.body
          end)
        program.Rule.rules)
    analysis.Analysis.strata

let run_program ?options ?support ?telemetry ?journal ?cancel ?checkpoint
    ?resume_from program =
  let db = Database.create () in
  let stats =
    run ?options ?support ?telemetry ?journal ?cancel ?checkpoint ?resume_from
      program db
  in
  (db, stats)

let query db pred = Database.facts db pred

(** Facts of every @output-annotated predicate, in annotation order. *)
let outputs (program : Rule.program) db =
  List.filter_map
    (fun (a : Rule.annotation) ->
      match a.Rule.a_name, a.Rule.a_args with
      | "output", pred :: _ -> Some (pred, Database.facts db pred)
      | _ -> None)
    program.Rule.annotations

(* ------------------------------------------------------------------ *)
(* Fact-level explanation: bounded derivation trees over the support.

   The support records every derivation of every fact in a
   deterministic order (the merge phase emission order is
   schedule-independent, and checkpoints preserve per-fact entry lists
   verbatim), so picking the FIRST-recorded derivation at every node
   yields a tree that is bit-identical across [jobs], planner on/off,
   and checkpoint/resume. Parents always predate their fact in the
   first-recorded derivation, so the recursion is well-founded on
   acyclic data; cyclic ownership graphs are cut by the depth bound and
   the on-path cycle guard. *)

type explain_tree = {
  et_pred : string;
  et_fact : Database.fact;
  et_depth : int;  (* recursion depth of this node, root = 0 *)
  et_node : explain_node;
}

and explain_node =
  | Ground  (* no recorded derivation: extensional (or support is off) *)
  | Truncated  (* max_depth reached; the fact does have derivations *)
  | Cycle  (* fact already on the current path *)
  | Derived of explain_deriv

and explain_deriv = {
  ed_rule_id : int;
  ed_rule : string;  (* pretty-printed firing rule *)
  ed_subst : (string * Value.t) list;
      (* head-variable substitution grounding the head to the fact,
         existentials bound to the invented nulls; sorted by name *)
  ed_nulls : int list;  (* labeled nulls this derivation invented *)
  ed_premises : explain_tree list;  (* canonical parent order *)
}

let default_explain_depth = 32

(* the substitution under which some head atom of [r] grounds to
   [fact]: constants must coincide, variables bind consistently *)
let head_substitution (r : Rule.rule) pred (fact : Database.fact) =
  let try_atom (a : Rule.atom) =
    if a.Rule.pred <> pred || List.length a.Rule.args <> Array.length fact
    then None
    else begin
      let binds = Hashtbl.create 8 in
      let ok =
        List.for_all2
          (fun t v ->
            match t with
            | Term.Const c -> Value.equal c v
            | Term.Var x -> (
                match Hashtbl.find_opt binds x with
                | Some v' -> Value.equal v v'
                | None ->
                    Hashtbl.add binds x v;
                    true))
          a.Rule.args (Array.to_list fact)
      in
      if ok then
        Some
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) binds []
          |> List.sort (fun (a, _) (b, _) -> String.compare a b))
      else None
    end
  in
  Option.value ~default:[] (List.find_map try_atom r.Rule.head)

(* premises render in value order: predicate, arity, then the tuple
   under Value.compare — the canonical parent order is on ids, which
   would make the output depend on interning order *)
let compare_premise (p, f, _) (q, g, _) =
  let c = String.compare p q in
  if c <> 0 then c
  else
    let c = Int.compare (Array.length f) (Array.length g) in
    if c <> 0 then c
    else List.compare Value.compare (Array.to_list f) (Array.to_list g)

let explain_tree ?(max_depth = default_explain_depth) (sup : support)
    (program : Rule.program) pred (fact : Database.fact) =
  sync sup;
  let rules = Array.of_list program.Rule.rules in
  (* [id] is [None] for a root the dictionary never saw: it cannot have
     been recorded *)
  let rec go path depth pred fact id =
    let entries =
      match Option.bind id (fun f -> FactTbl.find_opt sup.sup_ix.sx_entries (pred, f)) with
      | Some r -> !r
      | None -> []
    in
    let node =
      match entries, id with
      | [], _ | _, None -> Ground
      | entries, Some f ->
          let key = (pred, f) in
          if depth >= max_depth then Truncated
          else if List.exists (FactId.equal key) path then Cycle
          else begin
            (* entries are most-recent-first: the first-recorded
               derivation is the last *)
            let e = List.nth entries (List.length entries - 1) in
            let rule =
              if e.se_rule >= 0 && e.se_rule < Array.length rules then
                Some rules.(e.se_rule)
              else None
            in
            Derived
              { ed_rule_id = e.se_rule;
                ed_rule =
                  (match rule with
                   | Some r -> Format.asprintf "%a" Rule.pp_rule r
                   | None -> "<rule " ^ string_of_int e.se_rule ^ ">");
                ed_subst =
                  (match rule with
                   | Some r -> head_substitution r pred fact
                   | None -> []);
                ed_nulls = e.se_nulls;
                ed_premises =
                  List.map
                    (fun (pp, pf) ->
                      (pp, Array.map (Intern.resolve (Database.dict sup.sup_db)) pf, pf))
                    e.se_parents
                  |> List.sort compare_premise
                  |> List.map (fun (pp, values, pf) ->
                         go (key :: path) (depth + 1) pp values (Some pf)) }
          end
    in
    { et_pred = pred; et_fact = fact; et_depth = depth; et_node = node }
  in
  go [] 0 pred fact (Database.find_fact sup.sup_db fact)

let rec pp_explain_tree ppf (t : explain_tree) =
  let pp_fact ppf (p, f) =
    Format.fprintf ppf "%s(%s)" p
      (String.concat ", " (Array.to_list (Array.map Value.to_string f)))
  in
  Format.fprintf ppf "@[<v 2>%a" pp_fact (t.et_pred, t.et_fact);
  (match t.et_node with
   | Ground -> Format.fprintf ppf "  (ground)"
   | Truncated -> Format.fprintf ppf "  (depth limit)"
   | Cycle -> Format.fprintf ppf "  (cycle)"
   | Derived d ->
       Format.fprintf ppf "  <- %s" d.ed_rule;
       if d.ed_subst <> [] then
         Format.fprintf ppf "@,{%s}"
           (String.concat ", "
              (List.map
                 (fun (v, value) ->
                   Printf.sprintf "%s = %s" v (Value.to_string value))
                 d.ed_subst));
       if d.ed_nulls <> [] then
         Format.fprintf ppf "@,invents %s"
           (String.concat ", "
              (List.map (fun n -> "_:" ^ string_of_int n) d.ed_nulls));
       List.iter
         (fun p -> Format.fprintf ppf "@,%a" pp_explain_tree p)
         d.ed_premises);
  Format.fprintf ppf "@]"

let explain_tree_to_string t = Format.asprintf "%a@." pp_explain_tree t
