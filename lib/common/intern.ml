(* Append-only dictionary from values to dense int ids.

   Concurrency discipline (enforced by the engine, not by locks): the
   dictionary is mutated only on sequential paths — program load,
   rule preparation, round-0 evaluation, the merge sweep, checkpoint
   resume. While the database is frozen for a parallel round, pool
   workers only call the read-only [find]/[resolve]/[is_null]; the
   pool's own mutex provides the happens-before edge for anything
   interned before the round started. Values computed by workers that
   are not yet in the dictionary go through a worker-local [Scratch]
   table (negative ids) and are re-interned sequentially at merge, so
   id assignment is deterministic across jobs x planner x chunking.

   One writer may intern while other domains read: the reasoning
   server's epoch readers look query constants up while an update
   interns its batch (see below). *)

module VTbl = Hashtbl.Make (Value.Hashed)

(* Readers (epoch queries on other domains) call [find]/[resolve]
   lock-free while the writer interns. Every structure they read is
   either only appended to in place (a new table cell, a new array
   slot, both fully built before they become reachable) or replaced
   whole through an atomic: [Hashtbl.resize] relinks cells in place and
   empties the bucket array first, so a concurrent lookup could miss a
   present value. The table therefore never resizes in place: it is
   kept at most [cap] entries (bucket count >= [cap], load <= 1), and
   growth rebuilds a table of twice the capacity aside and publishes
   it with one atomic store. *)
type t = {
  vals : Value.t array Atomic.t; (* id -> value *)
  nulls : Bytes.t Atomic.t; (* id -> 1 iff the value is a labeled null *)
  mutable len : int;
  ids : int VTbl.t Atomic.t; (* value -> id *)
  mutable cap : int; (* entries [ids] takes before it is rebuilt *)
}

let create ?(size = 256) () =
  let size = max 16 size in
  {
    vals = Atomic.make (Array.make size (Value.Int 0));
    nulls = Atomic.make (Bytes.make size '\000');
    len = 0;
    ids = Atomic.make (VTbl.create size);
    cap = size;
  }

let length t = t.len

let ensure t n =
  let old = Atomic.get t.vals in
  if n > Array.length old then begin
    let cap = max n (2 * Array.length old) in
    let vals = Array.make cap (Value.Int 0) in
    Array.blit old 0 vals 0 t.len;
    Atomic.set t.vals vals;
    let nulls = Bytes.make cap '\000' in
    Bytes.blit (Atomic.get t.nulls) 0 nulls 0 t.len;
    Atomic.set t.nulls nulls
  end

let grow t =
  let old = Atomic.get t.ids in
  let cap = 2 * t.cap in
  let ids = VTbl.create cap in
  VTbl.iter (fun v id -> VTbl.add ids v id) old;
  t.cap <- cap;
  Atomic.set t.ids ids

let intern t v =
  match VTbl.find_opt (Atomic.get t.ids) v with
  | Some id -> id
  | None ->
      let id = t.len in
      ensure t (id + 1);
      (Atomic.get t.vals).(id) <- v;
      if Value.is_null v then Bytes.set (Atomic.get t.nulls) id '\001';
      t.len <- id + 1;
      if VTbl.length (Atomic.get t.ids) >= t.cap then grow t;
      VTbl.add (Atomic.get t.ids) v id;
      id

let find t v = VTbl.find_opt (Atomic.get t.ids) v

let resolve t id =
  if id < 0 || id >= t.len then invalid_arg "Intern.resolve: unknown id";
  (Atomic.get t.vals).(id)

let is_null t id =
  if id < 0 || id >= t.len then invalid_arg "Intern.is_null: unknown id";
  Bytes.get (Atomic.get t.nulls) id = '\001'

let export t = Array.sub (Atomic.get t.vals) 0 t.len

(* Worker-local side table for values first seen on a pool worker (the
   frozen dictionary cannot be appended to). Ids are negative so they
   can never collide with dictionary ids; they are only meaningful to
   the worker that created them and are re-interned at merge. *)
module Scratch = struct
  type s = { mutable sc_vals : Value.t array; mutable sc_len : int; sc_ids : int VTbl.t }

  let create () = { sc_vals = [||]; sc_len = 0; sc_ids = VTbl.create 8 }

  let id s v =
    match VTbl.find_opt s.sc_ids v with
    | Some id -> id
    | None ->
        let k = s.sc_len in
        if k >= Array.length s.sc_vals then begin
          let cap = max 4 (2 * Array.length s.sc_vals) in
          let vals = Array.make cap (Value.Int 0) in
          Array.blit s.sc_vals 0 vals 0 s.sc_len;
          s.sc_vals <- vals
        end;
        s.sc_vals.(k) <- v;
        s.sc_len <- k + 1;
        let id = -k - 1 in
        VTbl.add s.sc_ids v id;
        id

  let resolve s id =
    let k = -id - 1 in
    if k < 0 || k >= s.sc_len then invalid_arg "Intern.Scratch.resolve: unknown id";
    s.sc_vals.(k)
end
