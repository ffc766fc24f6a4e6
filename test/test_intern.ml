(* Tests for the value-interning layer: the intern/resolve bijection on
   hostile values (NaN floats, nested Oids, lists carrying the SQL list
   escapes), worker-local scratch ids, and the invariants downstream of
   the dictionary — CSV import and SQL export are unchanged by
   interning, and the v3 snapshot format round-trips an interned
   database (with a v2 boxed-fact snapshot still readable). *)

open Kgm_common
module V = Kgm_vadalog
module R = Kgm_resilience
module Sql = Kgm_relational.Sql

let check = Alcotest.check

(* Values chosen to stress every comparison edge the dictionary must
   get right: NaN (structural [=] never equates it with itself),
   negative zero (collapses onto 0. under Value.equal), Skolem Oids
   with separator bytes in their arguments, strings and nested lists
   carrying the [';'] / ['\'] bytes the SQL list codec escapes. *)
let hostiles =
  [ Value.Int 0;
    Value.Int (-42);
    Value.Int max_int;
    Value.Float 0.;
    Value.Float Float.nan;
    Value.Float Float.infinity;
    Value.Float Float.neg_infinity;
    Value.Float 1.5;
    Value.String "";
    Value.String "a;b";
    Value.String {|back\slash|};
    Value.String "quote\"comma,";
    Value.String "new\nline";
    Value.Bool true;
    Value.Bool false;
    Value.Date (2024, 2, 29);
    Value.Id (Oid.skolem "sk" [ "a;b"; {|c\d|} ]);
    (* labels far above anything the process's null counter will mint,
       so engine-invented nulls never collide with these EDB nulls *)
    Value.Null 900_000_003;
    Value.Null 900_000_004;
    Value.List [];
    Value.List [ Value.String ";"; Value.String {|\|} ];
    Value.List
      [ Value.List [ Value.Float Float.nan; Value.Id (Oid.skolem "sk" [ "x" ]) ];
        Value.Int 1 ] ]

let test_bijection () =
  let d = Intern.create () in
  let ids = List.map (fun v -> Intern.intern d v) hostiles in
  List.iter2
    (fun v id ->
      let tag fmt = Printf.sprintf "%s: %s" (Value.to_string v) fmt in
      check Alcotest.bool (tag "id in range") true
        (0 <= id && id < Intern.length d);
      check Alcotest.int (tag "re-intern is stable") id (Intern.intern d v);
      check Alcotest.(option int) (tag "find agrees") (Some id)
        (Intern.find d v);
      check Alcotest.bool (tag "resolve round-trips") true
        (Value.equal v (Intern.resolve d id));
      check Alcotest.bool (tag "null flag") (Value.is_null v)
        (Intern.is_null d id))
    hostiles ids;
  (* ids are dense: every distinct value got exactly one slot (the two
     zeros share one — Value.equal equates 0. and -0.) *)
  let distinct = List.sort_uniq compare ids in
  check Alcotest.int "dense ids" (List.length distinct) (Intern.length d);
  (* export mirrors the table in id order *)
  let ex = Intern.export d in
  check Alcotest.int "export length" (Intern.length d) (Array.length ex);
  List.iter2
    (fun v id ->
      check Alcotest.bool "export round-trips" true (Value.equal v ex.(id)))
    hostiles ids

let test_scratch () =
  let d = Intern.create () in
  ignore (Intern.intern d (Value.Int 0));
  let s = Intern.Scratch.create () in
  let ids = List.map (Intern.Scratch.id s) hostiles in
  List.iter2
    (fun v id ->
      let tag fmt = Printf.sprintf "%s: %s" (Value.to_string v) fmt in
      (* negative: never collides with a dictionary id *)
      check Alcotest.bool (tag "scratch id is negative") true (id < 0);
      check Alcotest.int (tag "scratch id is stable") id
        (Intern.Scratch.id s v);
      check Alcotest.bool (tag "scratch resolve round-trips") true
        (Value.equal v (Intern.Scratch.resolve s id)))
    hostiles ids;
  (* the scratch table never touched the dictionary *)
  check Alcotest.int "dictionary unchanged" 1 (Intern.length d)

(* CSV rows load to the same boxed facts whether the database's
   dictionary is fresh or already populated with unrelated ids — the
   dictionary is invisible to the import path. *)
let test_csv_import_unchanged () =
  let rows = [ "1,hello"; "2.5,a;b"; "true,2024-02-29"; {|x\y,new|} ] in
  let load db =
    ignore (V.Io_sources.load_rows ~source:"test" db "p" rows);
    V.Database.facts db "p"
  in
  let fresh = load (V.Database.create ()) in
  let d = Intern.create () in
  List.iter (fun v -> ignore (Intern.intern d v)) hostiles;
  let shared = load (V.Database.create ~dict:d ()) in
  check Alcotest.int "row count" (List.length rows) (List.length fresh);
  List.iter2
    (fun a b ->
      check Alcotest.bool "facts equal across dictionaries" true
        (Array.for_all2 Value.equal a b))
    fresh shared;
  (* spot-check the parsed cells survived the interned store *)
  match fresh with
  | [| Value.Int 1; Value.String "hello" |] :: _ -> ()
  | _ -> Alcotest.fail "unexpected first row"

(* SQL rendering commutes with intern/resolve: exporting an interned
   value is exporting the value. *)
let test_sql_export_unchanged () =
  let d = Intern.create () in
  List.iter
    (fun v ->
      let v' = Intern.resolve d (Intern.intern d v) in
      check Alcotest.string
        ("sql_literal " ^ Value.to_string v)
        (Sql.sql_literal v) (Sql.sql_literal v'))
    hostiles;
  (* the list codec's escapes survive the round trip through the
     dictionary: decode (encode l) = map sql_literal l, interned *)
  let l = [ Value.String ";"; Value.String {|\|}; Value.String {|a\;b|} ] in
  let v' = Intern.resolve d (Intern.intern d (Value.List l)) in
  match v' with
  | Value.List l' ->
      check
        Alcotest.(list string)
        "list codec round-trips interned"
        (List.map Sql.sql_literal l)
        (Sql.decode_list (Sql.encode_list l'))
  | _ -> Alcotest.fail "resolve changed the constructor"

(* ------------------------------------------------------------------ *)
(* Snapshots. v3 stores facts as interned int arrays plus the
   dictionary; resuming from one must reproduce the uninterrupted run
   bit for bit even when the dictionary is full of hostile values. *)

let fresh_dir =
  let ctr = ref 0 in
  fun name ->
    incr ctr;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "kgm_intern_%s_%d_%d" name (Unix.getpid ()) !ctr)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Array.iter
      (fun f ->
        if Filename.check_suffix f ".snap" then
          Sys.remove (Filename.concat d f))
      (Sys.readdir d);
    d

let jobs n = { V.Engine.default_options with V.Engine.jobs = n }

(* a recursive program with an existential, seeded with hostile values:
   the snapshot's dictionary must carry every one of them across *)
let hostile_src =
  {| copy(X, Y) :- h(X, Y).
     link(Y, Z) :- copy(X, Y).
     copy(A, B) :- link(A, B), copy(B, C). |}

let load_hostile db =
  let n = List.length hostiles in
  List.iteri
    (fun i v ->
      let w = List.nth hostiles ((i + 1) mod n) in
      ignore (V.Database.add db "h" [| v; w |]))
    hostiles

(* Test_parallel.canon compared with [=] would reject itself here:
   the hostile facts carry [Float nan], which structural equality never
   equates. Compare the canonical forms pointwise with Value.equal. *)
let canon_equal a b =
  List.equal
    (fun (p, fs) (q, gs) ->
      String.equal p q && List.equal (List.equal Value.equal) fs gs)
    (Test_parallel.canon a) (Test_parallel.canon b)

let run_hostile ?checkpoint ?resume_from n =
  let db = V.Database.create () in
  (* resumed runs take every fact, hostile seeds included, from the
     snapshot itself — only the fresh runs pre-load *)
  if resume_from = None then load_hostile db;
  let stats =
    V.Engine.run ~options:(jobs n) ?checkpoint ?resume_from
      (V.Parser.parse_program hostile_src)
      db
  in
  (db, stats)

let test_snapshot_v3_roundtrip () =
  let ref_db, _ = run_hostile 1 in
  let dir = fresh_dir "v3" in
  let ck = V.Engine.checkpoint ~every:1 dir in
  let db_ck, _ = run_hostile ~checkpoint:ck 1 in
  check Alcotest.bool "checkpointing changes nothing" true
    (canon_equal ref_db db_ck);
  let snaps = R.Snapshot.list ~dir ~kind:"chase-chase" in
  check Alcotest.bool "snapshots written" true (snaps <> []);
  List.iter
    (fun (_, path) ->
      List.iter
        (fun n ->
          let db_r, _ = run_hostile ~resume_from:path n in
          check Alcotest.bool
            (Printf.sprintf "resume (jobs=%d) equals fresh" n)
            true (canon_equal ref_db db_r))
        [ 1; 2 ])
    snaps

(* Structural mirror of the engine's v2 snapshot payload (facts as
   boxed value arrays, no dictionary). Marshal is shape-based, so the
   empty/None tails need no type agreement with the engine's internal
   counter, aggregate and support types. *)
type v2_payload = {
  q_fingerprint : string;
  q_stratum : int;
  q_round0_done : bool;
  q_rounds : int;
  q_deltas : int list;
  q_added : int;
  q_nulls : int;
  q_facts : (string * Value.t array list) list;
  q_delta : (string * Value.t array list) list;
  q_ctrs : int array;
  q_agg : (int * int) list;
  q_prov : int option;
  q_sup : int option;
}

let test_snapshot_v2_compat () =
  let src = "p(1, 2). p(2, 3). q(X, Z) :- p(X, Y), p(Y, Z)." in
  let program = V.Parser.parse_program src in
  let ref_db = V.Database.create () in
  ignore (V.Engine.run ~options:(jobs 1) program ref_db);
  (* hand-write a v2 snapshot as taken right after the facts were
     loaded, before any round ran; the loader must re-intern its boxed
     facts. The null floor just has to be a safe over-approximation. *)
  let payload =
    { q_fingerprint =
        Digest.to_hex (Digest.string (V.Rule.program_to_string program));
      q_stratum = 0;
      q_round0_done = false;
      q_rounds = 0;
      q_deltas = [];
      q_added = 0;
      q_nulls = 1_000_000;
      q_facts =
        [ ("p",
           [ [| Value.Int 1; Value.Int 2 |]; [| Value.Int 2; Value.Int 3 |] ])
        ];
      q_delta = [];
      q_ctrs = [||];
      q_agg = [];
      q_prov = None;
      q_sup = None }
  in
  let dir = fresh_dir "v2" in
  let path = R.Snapshot.path ~dir ~kind:"chase-chase" ~seq:1 in
  R.Snapshot.save ~kind:"chase-chase" ~version:2 ~path payload;
  List.iter
    (fun n ->
      let db = V.Database.create () in
      ignore (V.Engine.run ~options:(jobs n) ~resume_from:path program db);
      check Alcotest.bool
        (Printf.sprintf "v2 resume (jobs=%d) equals fresh" n)
        true
        (Test_parallel.canon ref_db = Test_parallel.canon db))
    [ 1; 2 ]

(* Structural mirror of a v3 snapshot: interned facts and dictionary,
   but the derivation support still value-keyed (a [Hashtbl.Make]
   table marshals as a plain [Hashtbl.t]). *)
type v3_entry = {
  e_rule : int;
  e_parents : (string * Value.t array) list;
  e_nulls : int list;
}

type v3_support = {
  s_entries : (string * Value.t list, v3_entry list ref) Hashtbl.t;
  s_children :
    (string * Value.t list, (string * Value.t array) list ref) Hashtbl.t;
  s_null_origin : (int, (string * Value.t array) list) Hashtbl.t;
  s_null_facts : (int, (string * Value.t array) list ref) Hashtbl.t;
  s_suppressed : int list;
  s_suppressed_keys : (int, unit) Hashtbl.t;
}

type v3_payload = {
  r_fingerprint : string;
  r_stratum : int;
  r_round0_done : bool;
  r_rounds : int;
  r_deltas : int list;
  r_added : int;
  r_nulls : int;
  r_dict : Value.t array;
  r_facts : (string * int array list) list;
  r_delta : (string * int array list) list;
  r_ctrs : int array;
  r_agg : (int * int) list;
  r_prov : int option;
  r_sup : v3_support option;
}

let test_snapshot_v3_support_compat () =
  let src =
    {| e(a, b). e(b, c). e(c, d).
       tc(X, Y) :- e(X, Y).
       tc(X, Z) :- tc(X, Y), e(Y, Z). |}
  in
  let program = V.Parser.parse_program src in
  let options = { (jobs 1) with V.Engine.provenance = true } in
  let explain_ad (stats : V.Engine.stats) =
    V.Engine.explain_tree_to_string
      (V.Engine.explain_tree (Option.get stats.V.Engine.support) program "tc"
         [| Value.string "a"; Value.string "d" |])
  in
  let ref_db = V.Database.create () in
  let ref_explained = explain_ad (V.Engine.run ~options program ref_db) in
  (* hand-write the v3 snapshot taken after tc's stratum completed its
     first round: tc holds the three edges, each derived by rule 0 *)
  let analysis = V.Analysis.stratify program in
  let stratum =
    let rec find i = function
      | [] -> Alcotest.fail "no tc stratum"
      | preds :: rest -> if List.mem "tc" preds then i else find (i + 1) rest
    in
    find 0 analysis.V.Analysis.strata
  in
  let v = Value.string in
  let edges = [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |] ] in
  let dict = [| v "a"; v "b"; v "c"; v "d" |] in
  let vals f = Array.map (fun id -> dict.(id)) f in
  let entries = Hashtbl.create 8 in
  List.iter
    (fun f ->
      Hashtbl.add entries
        ("tc", Array.to_list (vals f))
        (ref [ { e_rule = 0; e_parents = [ ("e", vals f) ]; e_nulls = [] } ]))
    edges;
  let payload =
    { r_fingerprint =
        Digest.to_hex (Digest.string (V.Rule.program_to_string program));
      r_stratum = stratum;
      r_round0_done = true;
      r_rounds = 1;
      r_deltas = [ 3 ];
      r_added = 3;
      r_nulls = 1_000_000;
      r_dict = dict;
      r_facts = [ ("e", edges); ("tc", edges) ];
      r_delta = [ ("tc", edges) ];
      r_ctrs = [||];
      r_agg = [];
      r_prov = None;
      r_sup =
        Some
          { s_entries = entries; s_children = Hashtbl.create 1;
            s_null_origin = Hashtbl.create 1; s_null_facts = Hashtbl.create 1;
            s_suppressed = []; s_suppressed_keys = Hashtbl.create 1 } }
  in
  let dir = fresh_dir "v3sup" in
  let path = R.Snapshot.path ~dir ~kind:"chase-chase" ~seq:1 in
  R.Snapshot.save ~kind:"chase-chase" ~version:3 ~path payload;
  List.iter
    (fun n ->
      let db = V.Database.create () in
      let stats =
        V.Engine.run ~options:{ options with V.Engine.jobs = n }
          ~resume_from:path program db
      in
      check Alcotest.bool
        (Printf.sprintf "v3 resume (jobs=%d) equals fresh" n)
        true
        (Test_parallel.canon ref_db = Test_parallel.canon db);
      check Alcotest.string
        (Printf.sprintf "v3 resume (jobs=%d) explains alike" n)
        ref_explained (explain_ad stats))
    [ 1; 2 ]

(* Structural mirror of a v4 snapshot: interned facts, dictionary and
   support, and per-rule counters of seven fields (no head-check
   candidate count yet). Their counters must be widened on load, never
   read as the engine's current eight-field record. *)
type v4_ctr = {
  o_firings : int;
  o_matches : int;
  o_probes : int;
  o_nulls : int;
  o_hits : int;
  o_misses : int;
  o_time : float;
}

type v4_payload = {
  t_fingerprint : string;
  t_stratum : int;
  t_round0_done : bool;
  t_rounds : int;
  t_deltas : int list;
  t_added : int;
  t_nulls : int;
  t_dict : Value.t array;
  t_facts : (string * int array list) list;
  t_delta : (string * int array list) list;
  t_ctrs : v4_ctr array;
  t_agg : (int * int) list;
  t_prov : int option;
  t_sup : int option;
}

let test_snapshot_v4_counters_compat () =
  let src =
    {| e(a, b). e(b, c). e(c, d).
       tc(X, Y) :- e(X, Y).
       tc(X, Z) :- tc(X, Y), e(Y, Z). |}
  in
  let program = V.Parser.parse_program src in
  let ref_db = V.Database.create () in
  ignore (V.Engine.run ~options:(jobs 1) program ref_db);
  let analysis = V.Analysis.stratify program in
  let stratum =
    let rec find i = function
      | [] -> Alcotest.fail "no tc stratum"
      | preds :: rest -> if List.mem "tc" preds then i else find (i + 1) rest
    in
    find 0 analysis.V.Analysis.strata
  in
  let v = Value.string in
  let edges = [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |] ] in
  (* the snapshot taken after tc's stratum completed its first round,
     carrying the given counters *)
  let write name ctrs =
    let payload =
      { t_fingerprint =
          Digest.to_hex (Digest.string (V.Rule.program_to_string program));
        t_stratum = stratum;
        t_round0_done = true;
        t_rounds = 1;
        t_deltas = [ 3 ];
        t_added = 3;
        t_nulls = 1_000_000;
        t_dict = [| v "a"; v "b"; v "c"; v "d" |];
        t_facts = [ ("e", edges); ("tc", edges) ];
        t_delta = [ ("tc", edges) ];
        t_ctrs = ctrs;
        t_agg = [];
        t_prov = None;
        t_sup = None }
    in
    let dir = fresh_dir name in
    let path = R.Snapshot.path ~dir ~kind:"chase-chase" ~seq:1 in
    R.Snapshot.save ~kind:"chase-chase" ~version:4 ~path payload;
    path
  in
  let zero =
    { o_firings = 0; o_matches = 0; o_probes = 0; o_nulls = 0; o_hits = 0;
      o_misses = 0; o_time = 0. }
  in
  let counted =
    [| { o_firings = 3; o_matches = 5; o_probes = 11; o_nulls = 2;
         o_hits = 7; o_misses = 13; o_time = 0.5 };
       { o_firings = 17; o_matches = 19; o_probes = 23; o_nulls = 29;
         o_hits = 31; o_misses = 37; o_time = 0.25 } |]
  in
  let from_zero = write "v4zero" [| zero; zero |] in
  let from_counted = write "v4ctrs" counted in
  List.iter
    (fun n ->
      let resume path =
        let db = V.Database.create () in
        let stats = V.Engine.run ~options:(jobs n) ~resume_from:path program db in
        check Alcotest.bool
          (Printf.sprintf "v4 resume (jobs=%d) equals fresh" n)
          true
          (Test_parallel.canon ref_db = Test_parallel.canon db);
        stats.V.Engine.per_rule
      in
      let base = resume from_zero and got = resume from_counted in
      check Alcotest.int "two rules" 2 (List.length got);
      (* the resumed run adds exactly its own work to the stored counts *)
      List.iteri
        (fun i ((b : V.Engine.rule_stats), (g : V.Engine.rule_stats)) ->
          let c = counted.(i) in
          let eq what stored field =
            check Alcotest.int
              (Printf.sprintf "jobs=%d rule %d %s" n i what)
              (stored + field b) (field g)
          in
          eq "firings" c.o_firings (fun s -> s.V.Engine.rs_firings);
          eq "matches" c.o_matches (fun s -> s.V.Engine.rs_matches);
          eq "probes" c.o_probes (fun s -> s.V.Engine.rs_probes);
          eq "nulls" c.o_nulls (fun s -> s.V.Engine.rs_nulls);
          eq "hits" c.o_hits (fun s -> s.V.Engine.rs_chase_hits);
          eq "misses" c.o_misses (fun s -> s.V.Engine.rs_chase_misses);
          eq "head probes" 0 (fun s -> s.V.Engine.rs_head_probes);
          check Alcotest.bool
            (Printf.sprintf "jobs=%d rule %d time carried" n i)
            true
            (g.V.Engine.rs_time_s >= c.o_time
            && g.V.Engine.rs_time_s < c.o_time +. 60.))
        (List.combine base got))
    [ 1; 2 ]

(* A reader on another domain looks up values interned before it
   started while the writer interns 2x10^5 fresh ones, growing the
   table through many doublings: every lookup must find its value. *)
let test_find_beside_intern () =
  let d = Intern.create () in
  let old = Array.init 64 (fun i -> Value.String (Printf.sprintf "old%d" i)) in
  let ids = Array.map (Intern.intern d) old in
  let stop = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let misses = ref 0 and lookups = ref 0 in
        while not (Atomic.get stop) do
          Array.iteri
            (fun i v ->
              incr lookups;
              if Intern.find d v <> Some ids.(i) then incr misses)
            old
        done;
        (!misses, !lookups))
  in
  for i = 0 to 199_999 do
    ignore (Intern.intern d (Value.Int i))
  done;
  Atomic.set stop true;
  let misses, lookups = Domain.join reader in
  check Alcotest.bool "the reader looked up" true (lookups > 0);
  check Alcotest.int "no lookup missed" 0 misses;
  check Alcotest.int "every value interned" (64 + 200_000) (Intern.length d)

let suite =
  [ ("intern/resolve bijection on hostile values", `Quick, test_bijection);
    ("find beside a concurrent intern", `Quick, test_find_beside_intern);
    ("scratch ids are negative, stable, isolated", `Quick, test_scratch);
    ("csv import unchanged by interning", `Quick, test_csv_import_unchanged);
    ("sql export unchanged by interning", `Quick, test_sql_export_unchanged);
    ("v3 snapshot round-trips an interned db", `Quick,
     test_snapshot_v3_roundtrip);
    ("v2 boxed-fact snapshot still resumes", `Quick, test_snapshot_v2_compat);
    ("v3 snapshot with support still resumes", `Quick,
     test_snapshot_v3_support_compat);
    ("v4 snapshot with counters still resumes", `Quick,
     test_snapshot_v4_counters_compat) ]
