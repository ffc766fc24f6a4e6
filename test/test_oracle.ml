(* A differential oracle over generated programs. QCheck generates small
   Vadalog programs with small EDBs — linear and non-linear recursion,
   multi-literal joins with constants, stratified negation and
   existential heads — and each property chases them under settings
   that must not change the result:

   (a) jobs {1,2} x planner {on,off}, each checkpointing every round
       and resuming from every one of those snapshots, against jobs=1
       with the planner on;
   (b) existential-free programs against the naive oracle
       (semi_naive=false, jobs 1, planner off);
   (c) existential-free programs chased on half the EDB, the other half
       inserted through Incremental, against a from-scratch chase.

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

type rule = { head : atom; body : lit list }
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
  { head = { pred = h; args = (if exist then args @ [ Var "N" ] else args) };
    body = List.map (fun a -> Pos a) pos @ neg @ cond }

let case_gen ~exist =
  let open G in
  let* rules = list_size (int_range 2 5) (oneofl idb_preds >>= rule_gen) in
  let* top =
    if not exist then return []
    else
      let* x = rule_gen ~exist:true exist_pred in
      let+ ys = list_size (int_range 0 2) (rule_gen top_pred) in
      x :: ys
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
          Printf.sprintf "%s :- %s." (atom_to_string r.head)
            (String.concat ", " (List.map lit r.body)))
        c.rules)

let options ?(semi_naive = true) ~jobs ~planner () =
  { V.Engine.default_options with V.Engine.jobs; planner; semi_naive }

let chase ?checkpoint ?resume_from options program =
  let db = V.Database.create () in
  ignore (V.Engine.run ~options ?checkpoint ?resume_from program db);
  db

let canon = V.Incremental.canonical_facts

(* (a) every (jobs, planner) setting, checkpointing every round, and its
   resumption from each of those snapshots equal the jobs=1 planned
   chase *)
let settings_agree c =
  let program = V.Parser.parse_program (to_source c) in
  let reference = canon (chase (options ~jobs:1 ~planner:true ()) program) in
  List.for_all
    (fun (jobs, planner) ->
      let options = options ~jobs ~planner () in
      let dir = Test_resilience.fresh_dir "oracle" in
      let checkpoint = V.Engine.checkpoint ~every:1 dir in
      let checkpointed = canon (chase ~checkpoint options program) in
      let snaps =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".snap")
        |> List.map (Filename.concat dir)
      in
      let resumed_agree =
        List.for_all
          (fun snap -> canon (chase ~resume_from:snap options program) = reference)
          snaps
      in
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir;
      checkpointed = reference && resumed_agree)
    [ (1, true); (1, false); (2, true); (2, false) ]

(* (b) the semi-naive chase equals the naive one *)
let naive_agrees c =
  let program = V.Parser.parse_program (to_source c) in
  canon (chase (options ~jobs:1 ~planner:true ()) program)
  = canon (chase (options ~semi_naive:false ~jobs:1 ~planner:false ()) program)

(* (c) chasing half the EDB and inserting the rest through maintenance
   equals a chase of the whole EDB *)
let insert_agrees c =
  let program = V.Parser.parse_program (to_source c) in
  let fact a =
    ( a.pred,
      Array.of_list
        (List.map (function Const k -> Value.Int k | Var _ -> assert false) a.args) )
  in
  let first, second =
    List.partition (fun (i, _) -> i mod 2 = 0) (List.mapi (fun i a -> (i, fact a)) c.edb)
  in
  let db = V.Database.create () in
  List.iter (fun (_, (p, f)) -> ignore (V.Database.add db p f)) first;
  let st, _ = V.Incremental.chase ~db { program with V.Rule.facts = [] } in
  ignore (V.Incremental.maintain st ~inserts:(List.map snd second) ~retracts:[]);
  V.Incremental.equal_facts (V.Incremental.db st)
    (chase V.Engine.default_options program)

let property ~name ~count ~exist prop =
  QCheck_alcotest.to_alcotest ~speed_level:`Quick
    ~rand:(Random.State.make [| 20221213 |])
    (QCheck2.Test.make ~name ~count ~long_factor:20 ~print:to_source
       (case_gen ~exist) prop)

let suite =
  [ property ~name:"jobs x planner x checkpoint/resume agree" ~count:60
      ~exist:true settings_agree;
    property ~name:"semi-naive equals the naive oracle" ~count:250
      ~exist:false naive_agrees;
    property ~name:"inserting half the EDB equals a full chase" ~count:200
      ~exist:false insert_agrees ]
