open Lcm_cstar
module K = Kernel

let four_point_average agg =
  K.Mul
    ( K.Const 0.25,
      K.Add
        ( K.Add
            (K.Add (K.Read (agg, K.Off (-1), K.Self), K.Read (agg, K.Off 1, K.Self)),
              K.Read (agg, K.Self, K.Off (-1)) ),
          K.Read (agg, K.Self, K.Off 1) ) )

let stencil =
  {
    K.name = "stencil";
    body =
      [
        K.Work 4;
        K.If
          ( K.Interior,
            [ K.Assign ("A", K.Self, K.Self, four_point_average "A") ],
            [ K.Assign ("A", K.Self, K.Self, K.Read ("A", K.Self, K.Self)) ] );
      ];
  }

let threshold ~omega =
  {
    K.name = "threshold";
    body =
      [
        K.Work 4;
        K.If
          ( K.And
              ( K.Interior,
                K.FCmp
                  ( K.Gt,
                    K.Abs
                      (K.Sub (four_point_average "A", K.Read ("A", K.Self, K.Self))),
                    K.Const omega ) ),
            [ K.Assign ("A", K.Self, K.Self, four_point_average "A") ],
            [] );
      ];
  }

let sor_half ~colour ~omega =
  {
    K.name = Printf.sprintf "sor_half_%d" colour;
    body =
      [
        K.If
          ( K.And
              ( K.Interior,
                K.ICmp (K.Eq, K.IMod (K.IAdd (K.I, K.J), 2), K.IConst colour) ),
            [
              K.Work 4;
              K.Assign
                ( "A",
                  K.Self,
                  K.Self,
                  K.Add
                    ( K.Mul (K.Const (1.0 -. omega), K.Read ("A", K.Self, K.Self)),
                      K.Mul (K.Const omega, four_point_average "A") ) );
            ],
            [] );
      ];
  }

let run_stencil rt ~n ~iters ~init =
  let a = Runtime.alloc2d rt ~rows:n ~cols:n ~dist:Lcm_mem.Gmem.Chunked in
  Agg.fillf a init;
  let apply = K.compile rt stencil { K.aggs = [ ("A", a) ]; reducers = [] } ~over:"A" in
  for iter = 0 to iters - 1 do
    apply ~iter ()
  done;
  Agg.sumf a

let run_sor rt ~n ~iters ~omega ~init =
  let a = Runtime.alloc2d rt ~rows:n ~cols:n ~dist:Lcm_mem.Gmem.Chunked in
  Agg.fillf a init;
  let red = K.compile rt (sor_half ~colour:0 ~omega) { K.aggs = [ ("A", a) ]; reducers = [] } ~over:"A" in
  let black = K.compile rt (sor_half ~colour:1 ~omega) { K.aggs = [ ("A", a) ]; reducers = [] } ~over:"A" in
  for iter = 0 to iters - 1 do
    red ~iter:(2 * iter) ();
    black ~iter:((2 * iter) + 1) ()
  done;
  Agg.sumf a
