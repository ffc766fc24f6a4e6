(* Sample statistics, metric records, GC figures and trace analysis
   shared by the workloads. *)

module T = Kgm_telemetry
module J = Kgm_telemetry.Json

let now = T.Clock.now

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Linear-interpolated quantile of an unsorted sample; nan when empty. *)
let quantile xs q =
  match List.sort Float.compare xs with
  | [] -> Float.nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let i = int_of_float pos in
      let frac = pos -. float_of_int i in
      if i + 1 >= Array.length a then a.(i)
      else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* A reported figure: value, unit, and how many samples it summarizes. *)
type metric = { name : string; unit : string; value : float; samples : int }

let metric ?(samples = 1) name unit value = { name; unit; value; samples }
let count name n = metric name "count" (float_of_int n)

let json_of_metric m =
  J.Obj
    [ ("value", J.Float m.value);
      ("unit", J.Str m.unit);
      ("samples", J.Int m.samples) ]

(* ---- GC ---- *)

type gc = { minor : int; major : int; allocated_words : float }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_collections;
    major = s.Gc.major_collections;
    allocated_words = s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words }

let word_mb = float_of_int (Sys.word_size / 8) /. 1048576.

let gc_metrics (a : gc) (b : gc) =
  [ count "gc.minor_collections" (b.minor - a.minor);
    count "gc.major_collections" (b.major - a.major);
    metric "gc.allocated_mb" "MB" ((b.allocated_words -. a.allocated_words) *. word_mb) ]

(* High-water mark of the OCaml heap over the whole process, which runs
   one workload only. *)
let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_mb

(* ---- traces ---- *)

(* Layer of a span by name: the benchmark's own spans are named
   "<layer>.<call>"; the library's spans are mapped by the module that
   records them. [None] marks a workload operation ("op.*"), whose self
   time is the part no layer accounts for. *)
let layer_of_span name =
  let prefix p = String.starts_with ~prefix:p name in
  if prefix "op." then None
  else if prefix "parser." then Some "parser"
  else if prefix "database." then Some "database"
  else if prefix "mtv." then Some "mtv"
  else if prefix "incremental." then Some "incremental"
  else if prefix "server." then Some "server"
  else if prefix "engine." || prefix "stratum" || prefix "round"
          || prefix "rule:" then Some "engine"
  else if List.mem name [ "materialize"; "load"; "reason"; "flush" ]
  then Some "materialize"
  else Some "other"

let layers =
  [ "parser"; "database"; "mtv"; "engine"; "materialize"; "incremental";
    "server" ]

(* Self time of every span (duration minus its children's), summed per
   layer, and the roots' total duration. *)
type attribution = { per_layer : (string * float) list; roots_s : float }

let attribute (spans : T.span list) =
  let child_s = Hashtbl.create 256 in
  List.iter
    (fun s ->
      match s.T.sp_parent with
      | Some p ->
          Hashtbl.replace child_s p
            (s.T.sp_dur +. Option.value ~default:0. (Hashtbl.find_opt child_s p))
      | None -> ())
    spans;
  let per = Hashtbl.create 16 in
  let roots = ref 0. in
  List.iter
    (fun s ->
      let self =
        s.T.sp_dur -. Option.value ~default:0. (Hashtbl.find_opt child_s s.T.sp_id)
      in
      if s.T.sp_parent = None then roots := !roots +. s.T.sp_dur;
      match layer_of_span s.T.sp_name with
      | None -> ()
      | Some l ->
          Hashtbl.replace per l
            (self +. Option.value ~default:0. (Hashtbl.find_opt per l)))
    spans;
  { per_layer = Hashtbl.fold (fun l s acc -> (l, s) :: acc) per []; roots_s = !roots }

let merge_attr a b =
  let keys = List.sort_uniq compare (List.map fst (a.per_layer @ b.per_layer)) in
  let get l xs = Option.value ~default:0. (List.assoc_opt l xs) in
  { per_layer = List.map (fun l -> (l, get l a.per_layer +. get l b.per_layer)) keys;
    roots_s = a.roots_s +. b.roots_s }

(* Layer self-time shares, the share all layers cover (spans of an
   unknown layer and the roots' own self time are the gap), and the
   traced end-to-end time. *)
let attribution_metrics a =
  let total = Float.max 1e-12 a.roots_s in
  let get l = Option.value ~default:0. (List.assoc_opt l a.per_layer) in
  let covered = List.fold_left (fun acc l -> acc +. get l) 0. layers in
  List.map (fun l -> metric ("self." ^ l ^ "_pct") "%" (100. *. get l /. total)) layers
  @ [ metric "trace.coverage_pct" "%" (100. *. covered /. total);
      metric "trace.e2e_s" "s" a.roots_s ]

(* One Chrome trace over several collectors (one thread row each), built
   as a [Json] value. Timestamps are aligned on each collector's epoch,
   given as a {!now} reading taken when it was created. Each row keeps
   its first [max_spans] spans; the rest are counted under
   otherData.dropped_spans. *)
let max_spans = 50_000

let chrome_trace (rows : (string * float * T.t) list) =
  let origin = List.fold_left (fun acc (_, e, _) -> Float.min acc e) infinity rows in
  let us x = J.Float (x *. 1e6) in
  let events =
    List.concat
      (List.mapi
         (fun tid (row, epoch, tele) ->
           J.Obj
             [ ("name", J.Str "thread_name"); ("ph", J.Str "M"); ("pid", J.Int 1);
               ("tid", J.Int tid);
               ("args", J.Obj [ ("name", J.Str row) ]) ]
           :: List.map
                (fun s ->
                  J.Obj
                    [ ("name", J.Str s.T.sp_name); ("cat", J.Str s.T.sp_cat);
                      ("ph", J.Str "X"); ("pid", J.Int 1); ("tid", J.Int tid);
                      ("ts", us (epoch -. origin +. s.T.sp_start));
                      ("dur", us s.T.sp_dur);
                      ("args",
                       J.Obj (List.map (fun (k, v) -> (k, J.Str v)) s.T.sp_args)) ])
                (List.filteri (fun i _ -> i < max_spans) (T.spans tele)))
         rows)
  in
  let dropped =
    List.fold_left
      (fun acc (_, _, tele) -> acc + max 0 (List.length (T.spans tele) - max_spans))
      0 rows
  in
  J.Obj
    [ ("traceEvents", J.Arr events);
      ("displayTimeUnit", J.Str "ms");
      ("otherData", J.Obj [ ("dropped_spans", J.Int dropped) ]) ]

(* Per-name median over several samples of the same metric set. *)
let median_metrics (runs : metric list list) =
  match runs with
  | [] -> []
  | first :: _ ->
      List.map
        (fun m ->
          let xs =
            List.filter_map
              (fun ms ->
                Option.map (fun x -> x.value)
                  (List.find_opt (fun x -> x.name = m.name) ms))
              runs
          in
          { m with value = median xs; samples = List.length xs })
        first

(* A full major collection before each timed operation, so every
   operation meets the heap state a fresh process would and the heap
   high-water does not depend on where the previous operation left the
   major cycle. *)
let settle () = Gc.full_major ()

(* Run [f] until [seconds] have passed and it ran at least [min] times,
   settling the heap before each call; returns the results in order. *)
let repeat ~min ~seconds f =
  let t_end = now () +. seconds in
  let rec go n acc =
    if n >= min && now () >= t_end then List.rev acc
    else begin
      settle ();
      go (n + 1) (f n :: acc)
    end
  in
  go 0 []

(* The operation loop of the batch workloads: [f] runs for [seconds]
   (at least three untraced times). In a traced run every other call
   gets the enabled collector [tele], so traced and untraced operations
   see the same machine conditions. Returns (untraced, traced) results,
   each in order. *)
let alternate ~trace ~seconds tele f =
  let ops =
    repeat ~min:(if trace then 6 else 3) ~seconds (fun i ->
        let traced = trace && i mod 2 = 1 in
        (traced, f (if traced then tele else T.null)))
  in
  ( List.filter_map (fun (t, x) -> if t then None else Some x) ops,
    List.filter_map (fun (t, x) -> if t then Some x else None) ops )

(* What one workload run produced. [e2e] holds the end-to-end figures:
   the ones every workload reports (setup_s, op_p50_ms, peak_heap_mb;
   see BENCHMARK.json) and the workload's own (materialize_s,
   query_p99_ms, ...). *)
type result = {
  e2e : metric list;
  layers : metric list;
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  info : (string * J.t) list;
}

let overhead_pct ~traced ~untraced =
  metric ~samples:(List.length traced) "trace.overhead_pct" "%"
    (100. *. ((median traced /. median untraced) -. 1.))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)
