open Lcm_mem

type t = {
  name : string;
  identity : Word.t;
  apply : Word.t -> Word.t -> Word.t;
  combine : clean:Word.t -> current:Word.t -> incoming:Word.t -> Word.t;
}

let int_sum =
  {
    name = "int_sum";
    identity = Word.of_int 0;
    apply = (fun a b -> Word.of_int (Word.to_int a + Word.to_int b));
    combine =
      (fun ~clean ~current ~incoming ->
        let contribution = Word.to_int incoming - Word.to_int clean in
        Word.of_int (Word.to_int current + contribution));
  }

let f32_sum =
  {
    name = "f32_sum";
    identity = Word.of_float 0.0;
    apply = Word.float_add;
    combine =
      (fun ~clean ~current ~incoming ->
        let contribution = Word.to_float incoming -. Word.to_float clean in
        Word.of_float (Word.to_float current +. contribution));
  }

let int_min =
  {
    name = "int_min";
    identity = Word.of_int 0x7FFFFFFF;
    apply = (fun a b -> Word.of_int (min (Word.to_int a) (Word.to_int b)));
    combine =
      (fun ~clean:_ ~current ~incoming ->
        Word.of_int (min (Word.to_int current) (Word.to_int incoming)));
  }

let int_max =
  {
    name = "int_max";
    identity = Word.of_int (-0x80000000);
    apply = (fun a b -> Word.of_int (max (Word.to_int a) (Word.to_int b)));
    combine =
      (fun ~clean:_ ~current ~incoming ->
        Word.of_int (max (Word.to_int current) (Word.to_int incoming)));
  }

let f32_min =
  {
    name = "f32_min";
    identity = Word.of_float infinity;
    apply = Word.float_min;
    combine = (fun ~clean:_ ~current ~incoming -> Word.float_min current incoming);
  }

let f32_max =
  {
    name = "f32_max";
    identity = Word.of_float neg_infinity;
    apply = Word.float_max;
    combine = (fun ~clean:_ ~current ~incoming -> Word.float_max current incoming);
  }

let band =
  {
    name = "band";
    identity = Word.of_int (-1);
    apply = (fun a b -> a land b);
    combine = (fun ~clean:_ ~current ~incoming -> current land incoming);
  }

let bor =
  {
    name = "bor";
    identity = Word.of_int 0;
    apply = (fun a b -> a lor b);
    combine = (fun ~clean:_ ~current ~incoming -> current lor incoming);
  }

let bxor =
  {
    name = "bxor";
    identity = Word.of_int 0;
    apply = (fun a b -> Word.of_int (Word.to_int a lxor Word.to_int b));
    combine =
      (fun ~clean ~current ~incoming ->
        (* the contribution is incoming xor clean *)
        Word.of_int (Word.to_int current lxor (Word.to_int incoming lxor Word.to_int clean)));
  }

let all = [ int_sum; f32_sum; int_min; int_max; f32_min; f32_max; band; bor; bxor ]
