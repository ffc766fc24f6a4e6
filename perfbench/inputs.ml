(* Seeded inputs. Everything here is derived from the workload seed and
   stays outside every timed region. *)

module G = Kgm_finance.Generator
module DG = Kgm_algo.Digraph

(* Shares are quantized to 6 decimals so that the rendered [.vada] text
   (the Vadalog lexer has no exponent syntax) parses back to exactly the
   weights the oracles use. *)
let quantize w = Float.round (w *. 1e6) /. 1e6

let ownership ~seed ~n =
  let o = G.generate ~seed ~n () in
  Array.iter (fun ws -> Array.iteri (fun i w -> ws.(i) <- quantize w) ws) o.G.weights;
  o

(* EXP-2 input: the n=400 network of the EXP-2 experiment (generator
   seed 42), with its vertices renumbered by the workload seed — persons
   among persons, companies among companies. Materialization cost is
   super-linear and dominated by the network's shape (the
   restricted-chase head check grows with the square of the edge count,
   aggregation with the squared in-degrees of widely held companies):
   across generator seeds at this size it varies by 1.4-2.4x even at a
   fixed edge count. Renumbering keeps the amount of work fixed while
   the seed still changes every identifier, insertion order and hash
   layout the pipeline sees. *)
let exp2_n = 400
let exp2_shape_seed = 42

let relabel ~seed (o : G.ownership) =
  let n = DG.n o.G.graph and np = o.G.n_persons in
  let rng = Random.State.make [| seed; 7 |] in
  let perm = Array.init n Fun.id in
  let shuffle lo hi =
    for i = hi - 1 downto lo + 1 do
      let j = lo + Random.State.int rng (i - lo + 1) in
      let x = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- x
    done
  in
  shuffle 0 np;
  shuffle np n;
  let inv = Array.make n 0 in
  Array.iteri (fun v p -> inv.(p) <- v) perm;
  let g = DG.create n in
  let weights =
    Array.init n (fun p ->
        let v = inv.(p) in
        List.iter (fun y -> DG.add_edge g p perm.(y)) (DG.succ_list o.G.graph v);
        Array.copy o.G.weights.(v))
  in
  { o with G.graph = g; weights }

let exp2_ownership ~seed = relabel ~seed (ownership ~seed:exp2_shape_seed ~n:exp2_n)

(* k disjoint copies of one 2x10^4-vertex graph, copy t shifted by
   t * 2x10^4: the generator is superlinear, so large inputs are built
   by tiling. *)
let tile_vertices = 20_000

type tiled = { base : G.ownership; tiles : int }

let tiled ~seed ~tiles = { base = ownership ~seed ~n:tile_vertices; tiles }
let vertices t = t.tiles * tile_vertices
let is_company t v = v mod tile_vertices >= t.base.G.n_persons

let iter_edges t f =
  for k = 0 to t.tiles - 1 do
    let off = k * tile_vertices in
    for x = 0 to tile_vertices - 1 do
      G.fold_owned t.base x (fun () y w -> f (off + x) (off + y) w) ()
    done
  done

let companies t =
  List.filter (is_company t) (List.init (vertices t) Fun.id)

let edges t =
  let acc = ref [] in
  iter_edges t (fun x y w -> acc := (x, y, w) :: !acc);
  Array.of_list (List.rev !acc)

(* ---- the reasoning program ---- *)

let fmt_weight w = Printf.sprintf "%.6f" w
let reach_threshold = 0.2

(* Example 4.2 company control plus the closure of >20% holdings. *)
let rules =
  Kgm_finance.Control.vadalog_program
  ^ Printf.sprintf
      "reach(X, Y) :- own(X, Y, W), W > %s.\n\
       reach(X, Z) :- reach(X, Y), own(Y, Z, W), W > %s.\n\
       @output(\"controls\").\n\
       @output(\"reach\").\n"
      (fmt_weight reach_threshold) (fmt_weight reach_threshold)

let own_fact x y w = Printf.sprintf "own(%d, %d, %s)." x y (fmt_weight w)

(* The whole program as [.vada] source text, facts first. *)
let render t =
  let b = Buffer.create (1 lsl 22) in
  for v = 0 to vertices t - 1 do
    if is_company t v then Printf.bprintf b "company(%d).\n" v
  done;
  iter_edges t (fun x y w ->
      Buffer.add_string b (own_fact x y w);
      Buffer.add_char b '\n');
  Buffer.add_string b rules;
  Buffer.contents b

(* ---- serving traffic ---- *)

(* Point queries over every company, keys Zipf(1)-skewed: the hot keys
   fit the server's parsed-query cache, the tail does not. *)
type queries = { keys : int array; cdf : float array }

let queries ~seed t =
  let keys = Array.of_list (companies t) in
  let rng = Random.State.make [| seed; 17 |] in
  for i = Array.length keys - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- x
  done;
  let cdf = Array.make (Array.length keys) 0. in
  let acc = ref 0. in
  Array.iteri
    (fun r _ ->
      acc := !acc +. (1. /. float_of_int (r + 1));
      cdf.(r) <- !acc)
    keys;
  Array.iteri (fun r c -> cdf.(r) <- c /. !acc) cdf;
  { keys; cdf }

let shapes = 3

(* controls(k, X) and reach(k, X) probe position 0, own(X, k, W)
   position 1. *)
let query_text shape k =
  match shape with
  | 0 -> Printf.sprintf "controls(%d, X)" k
  | 1 -> Printf.sprintf "reach(%d, X)" k
  | _ -> Printf.sprintf "own(X, %d, W)" k

let zipf_key q rng =
  let u = Random.State.float rng 1. in
  let lo = ref 0 and hi = ref (Array.length q.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if q.cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  q.keys.(!lo)

let next_query q rng =
  let shape = Random.State.int rng shapes in
  query_text shape (zipf_key q rng)

(* Update batches: batch i retracts a random own edge and re-inserts the
   edge batch i-1 retracted, so exactly one edge is missing at a time. *)
let batches ~seed (es : (int * int * float) array) count =
  let rng = Random.State.make [| seed; 29 |] in
  let prev = ref None in
  List.init count (fun _ ->
      let rec pick () =
        let i = Random.State.int rng (Array.length es) in
        if Some i = !prev then pick () else i
      in
      let i = pick () in
      let x, y, w = es.(i) in
      let body =
        Printf.sprintf "-%s\n" (own_fact x y w)
        ^ match !prev with
          | Some j ->
              let x, y, w = es.(j) in
              Printf.sprintf "+%s\n" (own_fact x y w)
          | None -> ""
      in
      prev := Some i;
      (body, i))
