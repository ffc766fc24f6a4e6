(* A differential oracle over generated programs. QCheck generates small
   Vadalog programs with small EDBs — linear and non-linear recursion,
   multi-literal joins with constants, stratified negation and
   existential heads — and each property chases them under settings
   that must not change the result:

   (a) jobs {1,2} x planner {on,off}, each checkpointing every round
       and resuming from every one of those snapshots, against jobs=1
       with the planner on — facts, and the explanation of every fact;
   (b) existential-free programs against the naive oracle
       (semi_naive=false, jobs 1, planner off);
   (c) existential-free programs chased on half the EDB, the other half
       inserted through Incremental, against a from-scratch chase;
   (d) programs with existential heads and stratified negation under a
       stream of insert/retract batches through Incremental.maintain
       (each batch's result copied as a server epoch would be, and every
       copy checked unchanged at the end of the stream),
       against a from-scratch chase of the final EDB, with the
       derivation support checked for soundness after every step.

   The shared update-batch parser ([Kgm_server.Batch], which reads
   untrusted /update bodies) is fuzzed here too: random and mutated
   batch texts must parse or fail with a structured error, promptly.

   Tier-1 runs a fixed seed; QCHECK_LONG=1 multiplies the case counts
   (qcheck-alcotest's long mode). Failures shrink to a minimal program. *)

open Kgm_common
module V = Kgm_vadalog
module G = QCheck2.Gen

type term = Var of string | Const of int
type atom = { pred : string; args : term list }

type lit =
  | Pos of atom
  | Neg of atom
  | Neq of string * string
  | Lt of string * int

type rule = { head : atom list; body : lit list }
type case = { rules : rule list; edb : atom list }

(* (predicate, arity, level). A rule reads positively at its head's
   level or below (self and mutual recursion within a level) and
   negatively strictly below it, so every program is stratified by
   construction. The existential predicate x sits on the top level,
   where only y reads it: the nulls it invents flow into joins, but
   never back into x, so every chase terminates. *)
let edb_preds = [ ("e", 2, -1); ("f", 2, -1); ("g", 1, -1) ]
let idb_preds = [ ("p", 2, 0); ("q", 2, 0); ("r", 2, 1); ("s", 1, 1) ]
let exist_pred = ("x", 2, 2)
let top_pred = ("y", 1, 2)

(* heads of the multi-atom existential rules: written only by those
   rules and read by nothing but their head checks *)
let multi_preds = [ ("u", 2); ("v", 3); ("w", 2) ]

(* EDB predicates are listed twice: bodies lean on them, so most
   generated programs derive something *)
let readable level =
  edb_preds
  @ List.filter (fun (_, _, l) -> l <= level) (edb_preds @ idb_preds)
  @ if level = 2 then [ exist_pred; top_pred ] else []

let negatable level =
  List.filter (fun (_, _, l) -> l < level) (edb_preds @ idb_preds)

let const_gen = G.map (fun c -> Const c) (G.int_range 1 3)

let atom_gen ~term preds =
  let open G in
  let* pred, arity, _ = oneofl preds in
  let+ args = list_repeat arity term in
  { pred; args }

let rec atom_vars acc = function
  | [] -> acc
  | Var v :: rest when not (List.mem v acc) -> atom_vars (v :: acc) rest
  | _ :: rest -> atom_vars acc rest

(* a rule for [head]: 1-3 positive literals over a small variable pool
   (so joins arise by sharing), then optionally a negation and a
   condition over the bound variables; head arguments are bound
   variables or constants, plus the fresh N of an existential head *)
let rule_gen ?(exist = false) (h, arity, level) =
  let open G in
  let* pos =
    list_size (int_range 1 3)
      (atom_gen
         ~term:
           (frequency
              [ (7, map (fun v -> Var v) (oneofl [ "X"; "Y"; "Z" ]));
                (1, const_gen) ])
         (readable (if exist then 1 else level)))
  in
  let bound =
    List.rev (List.fold_left (fun acc a -> atom_vars acc a.args) [] pos)
  in
  let bound_term =
    if bound = [] then const_gen
    else frequency [ (4, map (fun v -> Var v) (oneofl bound)); (1, const_gen) ]
  in
  let* neg =
    if bound = [] || negatable level = [] then return []
    else
      map Option.to_list
        (option ~ratio:0.3
           (map (fun a -> Neg a) (atom_gen ~term:bound_term (negatable level))))
  in
  let* cond =
    if bound = [] then return []
    else
      map Option.to_list
        (option ~ratio:0.3
           (oneof
              [ map2
                  (fun a b -> Neq (a, b))
                  (oneofl bound) (oneofl (List.rev bound));
                map2 (fun a c -> Lt (a, c)) (oneofl bound) (int_range 1 4) ]))
  in
  let+ args = list_repeat (if exist then arity - 1 else arity) bound_term in
  { head = [ { pred = h; args = (if exist then args @ [ Var "N" ] else args) } ];
    body = List.map (fun a -> Pos a) pos @ neg @ cond }

(* a rule with 2-3 head atoms over [multi_preds], with two plain rules
   feeding x: the body reads a null N back from x, joined with one more
   literal, and the head atoms share the existential M (in the first
   two atoms at least) and carry N — most often several times, so that
   head checks backtrack — bound variables, constants and a second
   existential K *)
let multi_rule_gen =
  let open G in
  let* from_x =
    map (fun a -> { pred = "x"; args = [ a; Var "N" ] })
      (oneof [ map (fun v -> Var v) (oneofl [ "X"; "Y" ]); const_gen ])
  in
  let* other =
    atom_gen
      ~term:
        (frequency
           [ (6, map (fun v -> Var v) (oneofl [ "X"; "Y" ])); (1, const_gen) ])
      (edb_preds @ [ exist_pred ])
  in
  let pos = [ from_x; other ] in
  let bound =
    List.rev (List.fold_left (fun acc a -> atom_vars acc a.args) [] pos)
  in
  let term =
    frequency
      [ (4, return (Var "M"));
        (3, return (Var "N"));
        (2, map (fun v -> Var v) (oneofl bound));
        (1, const_gen);
        (1, return (Var "K")) ]
  in
  let head_atom =
    let* pred, arity = oneofl multi_preds in
    let* args = list_repeat arity term in
    let+ at = int_range 0 (arity - 1) in
    (pred, arity, args, at)
  in
  let* heads = list_size (int_range 2 3) head_atom in
  let+ feeds =
    list_repeat 2
      (atom_gen ~term:(map (fun v -> Var v) (oneofl [ "X"; "Y" ])) edb_preds)
  in
  (* M at a drawn position of the first two atoms, and N beside it in
     the second *)
  let set i t args = List.mapi (fun j a -> if j = i then t else a) args in
  let head =
    List.mapi
      (fun k (pred, arity, args, at) ->
        let args =
          if k = 0 then set at (Var "M") args
          else if k = 1 then set ((at + 1) mod arity) (Var "N") (set at (Var "M") args)
          else args
        in
        { pred; args })
      heads
  in
  List.map
    (fun feed ->
      { head = [ { pred = "x"; args = [ List.hd feed.args; Var "N" ] } ];
        body = [ Pos feed ] })
    feeds
  @ [ { head; body = List.map (fun a -> Pos a) pos } ]

let case_gen ?(multi = false) ~exist () =
  let open G in
  let* rules = list_size (int_range 2 5) (oneofl idb_preds >>= rule_gen) in
  let* top =
    if not exist then return []
    else
      let* x = rule_gen ~exist:true exist_pred in
      let* ys = list_size (int_range 0 2) (rule_gen top_pred) in
      (* one multi-atom rule per program: the stratifier numbers
         independent strata in predicate order, so a head permutation
         can reorder two rules writing overlapping heads — and the
         restricted chase depends on rule order *)
      let+ multis = if multi then multi_rule_gen else return [] in
      (x :: ys) @ multis
  in
  let+ edb =
    list_size (int_range 3 16)
      (atom_gen ~term:(map (fun c -> Const c) (int_range 1 4)) edb_preds)
  in
  { rules = rules @ top; edb }

let term_to_string = function Var v -> v | Const c -> string_of_int c

let atom_to_string a =
  Printf.sprintf "%s(%s)" a.pred (String.concat ", " (List.map term_to_string a.args))

let to_source c =
  let lit = function
    | Pos a -> atom_to_string a
    | Neg a -> "not " ^ atom_to_string a
    | Neq (a, b) -> Printf.sprintf "%s != %s" a b
    | Lt (a, k) -> Printf.sprintf "%s < %d" a k
  in
  String.concat "\n"
    (List.map (fun a -> atom_to_string a ^ ".") c.edb
    @ List.map
        (fun r ->
          Printf.sprintf "%s :- %s."
            (String.concat ", " (List.map atom_to_string r.head))
            (String.concat ", " (List.map lit r.body)))
        c.rules)

let options ?(semi_naive = true) ~jobs ~planner () =
  { V.Engine.default_options with V.Engine.jobs; planner; semi_naive }

let chase_stats ?checkpoint ?resume_from options program =
  let db = V.Database.create () in
  let stats = V.Engine.run ~options ?checkpoint ?resume_from program db in
  (db, stats)

let chase ?checkpoint ?resume_from options program =
  fst (chase_stats ?checkpoint ?resume_from options program)

(* labeled-null numbers differ between runs: drop the digits after "_:"
   and its "n" *)
let mask_nulls s =
  let b = Buffer.create (String.length s) in
  let skip = ref false in
  String.iteri
    (fun i c ->
      if i >= 2 && s.[i - 2] = '_' && s.[i - 1] = ':' then skip := true;
      if not (!skip && (c = 'n' || (c >= '0' && c <= '9'))) then begin
        skip := false;
        Buffer.add_char b c
      end)
    s;
  Buffer.contents b

(* every fact's explanation, nulls masked, as a sorted list: what a
   run's support says, as its reader sees it *)
let explanations program (db, (stats : V.Engine.stats)) =
  match stats.V.Engine.support with
  | None -> []
  | Some sup ->
      List.concat_map
        (fun pred ->
          List.map
            (fun f ->
              mask_nulls
                (V.Engine.explain_tree_to_string
                   (V.Engine.explain_tree sup program pred f)))
            (V.Database.facts db pred))
        (V.Database.predicates db)
      |> List.sort compare

let canon = V.Incremental.canonical_facts

(* (a) every (jobs, planner) setting, checkpointing every round, and its
   resumption from each of those snapshots equal the jobs=1 planned
   chase *)
let settings_agree c =
  let program = V.Parser.parse_program (to_source c) in
  let with_support o = { o with V.Engine.provenance = true } in
  let ref_run = chase_stats (with_support (options ~jobs:1 ~planner:true ())) program in
  let reference = canon (fst ref_run) in
  let ref_explained = explanations program ref_run in
  let agrees run =
    canon (fst run) = reference && explanations program run = ref_explained
  in
  List.for_all
    (fun (jobs, planner) ->
      let options = with_support (options ~jobs ~planner ()) in
      let dir = Test_resilience.fresh_dir "oracle" in
      let checkpoint = V.Engine.checkpoint ~every:1 dir in
      let checkpointed = agrees (chase_stats ~checkpoint options program) in
      let snaps =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".snap")
        |> List.map (Filename.concat dir)
      in
      let resumed_agree =
        List.for_all
          (fun snap -> agrees (chase_stats ~resume_from:snap options program))
          snaps
      in
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir;
      checkpointed && resumed_agree)
    [ (1, true); (1, false); (2, true); (2, false) ]

(* (b) the semi-naive chase equals the naive one *)
let naive_agrees c =
  let program = V.Parser.parse_program (to_source c) in
  canon (chase (options ~jobs:1 ~planner:true ()) program)
  = canon (chase (options ~semi_naive:false ~jobs:1 ~planner:false ()) program)

let const_fact a =
  ( a.pred,
    Array.of_list
      (List.map (function Const k -> Value.Int k | Var _ -> assert false) a.args) )

(* (c) chasing half the EDB and inserting the rest through maintenance
   equals a chase of the whole EDB *)
let insert_agrees c =
  let program = V.Parser.parse_program (to_source c) in
  let first, second =
    List.partition (fun (i, _) -> i mod 2 = 0) (List.mapi (fun i a -> (i, const_fact a)) c.edb)
  in
  let db = V.Database.create () in
  List.iter (fun (_, (p, f)) -> ignore (V.Database.add db p f)) first;
  let st, _ = V.Incremental.chase ~db { program with V.Rule.facts = [] } in
  ignore (V.Incremental.maintain st ~inserts:(List.map snd second) ~retracts:[]);
  V.Incremental.equal_facts (V.Incremental.db st)
    (chase V.Engine.default_options program)

(* (e) the order of a rule's head atoms is immaterial: the chase of the
   program under every permutation of each head's atoms gives equal
   facts (up to null renaming) and the same per-rule restricted-chase
   hits and misses — the head check searches its atoms in an order of
   its own choosing, and that search must stay complete *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun i -> List.map (List.cons i) (permutations (List.filter (( <> ) i) l)))
        l

let head_order_immaterial c =
  let chase_permuted k =
    let permute head =
      let perms = permutations (List.init (List.length head) Fun.id) in
      List.map (List.nth head) (List.nth perms (k mod List.length perms))
    in
    let c = { c with rules = List.map (fun r -> { r with head = permute r.head }) c.rules } in
    chase_stats (options ~jobs:1 ~planner:true ()) (V.Parser.parse_program (to_source c))
  in
  let checks (s : V.Engine.stats) =
    List.map
      (fun r -> (r.V.Engine.rs_chase_hits, r.V.Engine.rs_chase_misses))
      s.V.Engine.per_rule
  in
  let db0, s0 = chase_permuted 0 in
  (* six permutations cover every order of a head of up to 3 atoms *)
  List.for_all
    (fun k ->
      let db, s = chase_permuted k in
      V.Incremental.equal_facts db0 db && checks s = checks s0)
    [ 1; 2; 3; 4; 5 ]

(* (d) update streams: a case plus 1-4 batches of signed EDB facts, drawn
   from the case's own EDB (so retractions hit) and from fresh ones *)
type stream = { s_case : case; s_batches : (bool * atom) list list }

let stream_gen =
  let open G in
  let* s_case = case_gen ~exist:true () in
  let fact =
    oneof
      [ oneofl s_case.edb;
        atom_gen ~term:(map (fun c -> Const c) (int_range 1 4)) edb_preds ]
  in
  let+ s_batches =
    list_size (int_range 1 4) (list_size (int_range 1 4) (pair bool fact))
  in
  { s_case; s_batches }

let stream_to_string s =
  to_source s.s_case ^ "\n"
  ^ String.concat "\n%%\n"
      (List.map
         (fun b ->
           String.concat "\n"
             (List.map
                (fun (ins, a) -> (if ins then "+" else "-") ^ atom_to_string a)
                b))
         s.s_batches)

(* Soundness of the derivation support against the store it describes:
   every derived fact has a derivation whose parents are all present,
   and nothing the support names — entry, parent, reverse edge, null
   origin or carrier, suppressed firing — is absent from the store. *)
let support_sound st =
  let db = V.Incremental.db st in
  let present (p, f) = V.Database.mem_i db p f in
  let all = List.for_all present in
  let ix = V.Engine.support_index (V.Incremental.support st) in
  let edb = V.Incremental.edb_facts st in
  let is_edb (p, f) =
    List.exists (fun (q, g) -> String.equal p q && Array.for_all2 Value.equal f g) edb
  in
  let entries k =
    match V.Database.FactTbl.find_opt ix.V.Engine.sx_entries k with
    | Some r -> !r
    | None -> []
  in
  let sound_entry (e : V.Engine.support_entry) = all e.V.Engine.se_parents in
  List.for_all
    (fun pred ->
      List.for_all
        (fun f ->
          is_edb (pred, V.Database.resolve_fact db f)
          || List.exists sound_entry (entries (pred, f)))
        (V.Database.facts_i db pred))
    (V.Database.predicates db)
  && V.Database.FactTbl.fold
       (fun k es acc -> acc && present k && List.for_all sound_entry !es)
       ix.V.Engine.sx_entries true
  && V.Database.FactTbl.fold
       (fun k cs acc -> acc && present k && all !cs)
       ix.V.Engine.sx_children true
  && Hashtbl.fold (fun _ ps acc -> acc && all ps) ix.V.Engine.sx_null_origin true
  && Hashtbl.fold (fun _ fs acc -> acc && all !fs) ix.V.Engine.sx_null_facts true
  && List.for_all
       (fun (sf : V.Engine.suppressed_firing) ->
         all sf.V.Engine.sf_parents && all sf.V.Engine.sf_image)
       ix.V.Engine.sx_suppressed

let stream_agrees s =
  let program = V.Parser.parse_program (to_source s.s_case) in
  let st, _ = V.Incremental.chase program in
  (* the EDB the batches leave behind: retractions first, then inserts
     of facts not already extensional, each appended at the end *)
  let edb = ref (List.map const_fact s.s_case.edb) in
  let same (p, f) (q, g) = String.equal p q && Array.for_all2 Value.equal f g in
  edb := List.fold_left (fun acc pf -> if List.exists (same pf) acc then acc else acc @ [ pf ]) [] !edb;
  (* a server epoch after every batch: a copy-on-write copy of the
     master, which later batches must never change *)
  let contents db =
    List.map (fun p -> (p, V.Database.facts_i db p)) (V.Database.predicates db)
  in
  let epochs = ref [] in
  support_sound st
  && List.for_all
       (fun batch ->
         let inserts = List.filter_map (fun (i, a) -> if i then Some (const_fact a) else None) batch in
         let retracts = List.filter_map (fun (i, a) -> if i then None else Some (const_fact a)) batch in
         ignore (V.Incremental.maintain st ~inserts ~retracts);
         let epoch = V.Database.copy (V.Incremental.db st) in
         epochs := (epoch, contents epoch) :: !epochs;
         edb := List.filter (fun pf -> not (List.exists (same pf) retracts)) !edb;
         List.iter (fun pf -> if not (List.exists (same pf) !edb) then edb := !edb @ [ pf ]) inserts;
         support_sound st
         && List.equal same (V.Incremental.edb_facts st) !edb)
       s.s_batches
  && List.for_all (fun (epoch, taken) -> contents epoch = taken) !epochs
  &&
  let fresh = V.Database.create () in
  List.iter (fun (p, f) -> ignore (V.Database.add fresh p f)) !edb;
  ignore (V.Engine.run { program with V.Rule.facts = [] } fresh);
  V.Incremental.equal_facts (V.Incremental.db st) fresh

(* Batch fuzzing: texts assembled from batch-shaped lines, then mutated
   byte-wise with the characters the grammar cares about. Parsing must
   return or raise Kgm_error.Error — anything else, or a parse still
   running after the watchdog's few seconds, fails the property. *)
let batch_line_gen =
  let open G in
  let* sign = oneofl [ "+"; "-"; ""; " + "; "--"; "%" ] in
  let* a = atom_gen ~term:const_gen (edb_preds @ idb_preds) in
  let+ dot = oneofl [ "."; ""; ".."; " . " ] in
  sign ^ atom_to_string a ^ dot

let batch_text_gen =
  let open G in
  let special =
    oneofl
      [ "("; ")"; "."; ","; "\""; "'"; "%"; ":-"; "\n"; "\\"; "+"; "-";
        "not "; "@"; "_"; "X"; "1e999"; "99999999999999999999"; "\000";
        "\xff"; " "; "@output(\"e\")"; "[" ; "]"; "=" ]
  in
  let mutate text =
    let* ops = list_size (int_range 0 6) (pair (int_range 0 2) (pair nat special)) in
    return
      (List.fold_left
         (fun t (op, (at, piece)) ->
           let n = String.length t in
           let i = if n = 0 then 0 else at mod (n + 1) in
           match op with
           | 0 -> String.sub t 0 i ^ piece ^ String.sub t i (n - i)
           | 1 when i < n -> String.sub t 0 i ^ String.sub t (i + 1) (n - i - 1)
           | _ when i < n ->
               String.sub t 0 i ^ piece ^ String.sub t (i + 1) (n - i - 1)
           | _ -> t)
         text ops)
  in
  oneof
    [ (list_size (int_range 0 6) batch_line_gen >|= String.concat "\n")
      >>= mutate;
      string_size ~gen:printable (int_range 0 80);
      (list_size (int_range 0 12) special >|= String.concat "") ]

exception Watchdog

let batch_parse_total text =
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> raise Watchdog)) in
  ignore (Unix.alarm 5);
  let outcome =
    match Kgm_server.Batch.parse text with
    | _ -> true
    | exception Kgm_error.Error _ -> true
    | exception Watchdog -> false
    | exception _ -> false
  in
  ignore (Unix.alarm 0);
  Sys.set_signal Sys.sigalrm old;
  outcome

let property ?multi ~name ~count ~exist prop =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| 20221213 |])
    (QCheck2.Test.make ~name ~count ~long_factor:20 ~print:to_source
       (case_gen ?multi ~exist ()) prop)

let suite =
  [ property ~name:"jobs x planner x checkpoint/resume agree" ~count:60
      ~exist:true ~multi:true settings_agree;
    property ~name:"head-atom order changes neither facts nor chase checks"
      ~count:500 ~exist:true ~multi:true head_order_immaterial;
    property ~name:"semi-naive equals the naive oracle" ~count:250
      ~exist:false naive_agrees;
    property ~name:"inserting half the EDB equals a full chase" ~count:200
      ~exist:false insert_agrees;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 20221213 |])
      (QCheck2.Test.make ~name:"update streams equal a chase of the final EDB"
         ~count:150 ~long_factor:20 ~print:stream_to_string stream_gen
         stream_agrees);
    QCheck_alcotest.to_alcotest ~speed_level:`Quick
      ~rand:(Random.State.make [| 20221213 |])
      (QCheck2.Test.make ~name:"batch parsing is total" ~count:500
         ~long_factor:20 ~print:(Printf.sprintf "%S") batch_text_gen
         batch_parse_total) ]
