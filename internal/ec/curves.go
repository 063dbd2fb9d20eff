package ec

import (
	"repro/internal/gf2"
	"repro/internal/mp"
)

// NIST curve parameters (FIPS 186-4). The prime curves use a = -3; the
// binary curves use a = 1 and cofactor 2. Parameters are validated by the
// test suite (base point on curve, n·G = ∞).

type primeCurveDef struct {
	field     string
	b, gx, gy string
	n         string
	nbits     int
}

var primeCurveDefs = map[string]primeCurveDef{
	"P-192": {
		field: "P-192",
		b:     "64210519e59c80e70fa7e9ab72243049feb8deecc146b9b1",
		gx:    "188da80eb03090f67cbf20eb43a18800f4ff0afd82ff1012",
		gy:    "07192b95ffc8da78631011ed6b24cdd573f977a11e794811",
		n:     "ffffffffffffffffffffffff99def836146bc9b1b4d22831",
		nbits: 192,
	},
	"P-224": {
		field: "P-224",
		b:     "b4050a850c04b3abf54132565044b0b7d7bfd8ba270b39432355ffb4",
		gx:    "b70e0cbd6bb4bf7f321390b94a03c1d356c21122343280d6115c1d21",
		gy:    "bd376388b5f723fb4c22dfe6cd4375a05a07476444d5819985007e34",
		n:     "ffffffffffffffffffffffffffff16a2e0b8f03e13dd29455c5c2a3d",
		nbits: 224,
	},
	"P-256": {
		field: "P-256",
		b:     "5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b",
		gx:    "6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296",
		gy:    "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5",
		n:     "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551",
		nbits: 256,
	},
	"P-384": {
		field: "P-384",
		b:     "b3312fa7e23ee7e4988e056be3f82d19181d9c6efe8141120314088f5013875ac656398d8a2ed19d2a85c8edd3ec2aef",
		gx:    "aa87ca22be8b05378eb1c71ef320ad746e1d3b628ba79b9859f741e082542a385502f25dbf55296c3a545e3872760ab7",
		gy:    "3617de4a96262c6f5d9e98bf9292dc29f8f41dbd289a147ce9da3113b5f0b8c00a60b1ce1d7e819d7a431d7c90ea0e5f",
		n:     "ffffffffffffffffffffffffffffffffffffffffffffffffc7634d81f4372ddf581a0db248b0a77aecec196accc52973",
		nbits: 384,
	},
	"P-521": {
		field: "P-521",
		b:     "051953eb9618e1c9a1f929a21a0b68540eea2da725b99b315f3b8b489918ef109e156193951ec7e937b1652c0bd3bb1bf073573df883d2c34f1ef451fd46b503f00",
		gx:    "0c6858e06b70404e9cd9e3ecb662395b4429c648139053fb521f828af606b4d3dbaa14b5e77efe75928fe1dc127a2ffa8de3348b3c1856a429bf97e7e31c2e5bd66",
		gy:    "11839296a789a3bc0045c8a5fb42c7d1bd998f54449579b446817afbd17273e662c97ee72995ef42640c550b9013fad0761353c7086a272c24088be94769fd16650",
		n:     "1fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffa51868783bf2f966b7fcc0148f709a5d03bb5c9b8899c47aebb6fb71e91386409",
		nbits: 521,
	},
}

// PrimeCurveNames lists the NIST prime curves in ascending security order.
var PrimeCurveNames = []string{"P-192", "P-224", "P-256", "P-384", "P-521"}

// NISTPrimeCurve constructs a named NIST prime curve whose field uses the
// given multiplication strategy.
func NISTPrimeCurve(name string, alg mp.MulAlg) *PrimeCurve {
	def, ok := primeCurveDefs[name]
	if !ok {
		panic("ec: unknown prime curve " + name)
	}
	f := mp.NISTField(def.field, alg)
	nWords := (def.nbits + 31) / 32
	return &PrimeCurve{
		Name:  name,
		F:     f,
		B:     mp.MustHex(def.b, f.K),
		Gx:    mp.MustHex(def.gx, f.K),
		Gy:    mp.MustHex(def.gy, f.K),
		N:     mp.MustHex(def.n, nWords),
		NBits: def.nbits,
	}
}

type binaryCurveDef struct {
	field     string
	b, gx, gy string
	n         string
	nbits     int
}

var binaryCurveDefs = map[string]binaryCurveDef{
	"B-163": {
		field: "B-163",
		b:     "20a601907b8c953ca1481eb10512f78744a3205fd",
		gx:    "3f0eba16286a2d57ea0991168d4994637e8343e36",
		gy:    "0d51fbc6c71a0094fa2cdd545b11c5c0c797324f1",
		n:     "40000000000000000000292fe77e70c12a4234c33",
		nbits: 163,
	},
	"B-233": {
		field: "B-233",
		b:     "066647ede6c332c7f8c0923bb58213b333b20e9ce4281fe115f7d8f90ad",
		gx:    "0fac9dfcbac8313bb2139f1bb755fef65bc391f8b36f8f8eb7371fd558b",
		gy:    "1006a08a41903350678e58528bebf8a0beff867a7ca36716f7e01f81052",
		n:     "1000000000000000000000000000013e974e72f8a6922031d2603cfe0d7",
		nbits: 233,
	},
	"B-283": {
		field: "B-283",
		b:     "27b680ac8b8596da5a4af8a19a0303fca97fd7645309fa2a581485af6263e313b79a2f5",
		gx:    "5f939258db7dd90e1934f8c70b0dfec2eed25b8557eac9c80e2e198f8cdbecd86b12053",
		gy:    "3676854fe24141cb98fe6d4b20d02b4516ff702350eddb0826779c813f0df45be8112f4",
		n:     "3ffffffffffffffffffffffffffffffffffef90399660fc938a90165b042a7cefadb307",
		nbits: 282,
	},
	"B-409": {
		field: "B-409",
		b:     "021a5c2c8ee9feb5c4b9a753b7b476b7fd6422ef1f3dd674761fa99d6ac27c8a9a197b272822f6cd57a55aa4f50ae317b13545f",
		gx:    "15d4860d088ddb3496b0c6064756260441cde4af1771d4db01ffe5b34e59703dc255a868a1180515603aeab60794e54bb7996a7",
		gy:    "061b1cfab6be5f32bbfa78324ed106a7636b9c5a7bd198d0158aa4f5488d08f38514f1fdf4b4f40d2181b3681c364ba0273c706",
		n:     "10000000000000000000000000000000000000000000000000001e2aad6a612f33307be5fa47c3c9e052f838164cd37d9a21173",
		nbits: 409,
	},
	"B-571": {
		field: "B-571",
		b:     "2f40e7e2221f295de297117b7f3d62f5c6a97ffcb8ceff1cd6ba8ce4a9a18ad84ffabbd8efa59332be7ad6756a66e294afd185a78ff12aa520e4de739baca0c7ffeff7f2955727a",
		gx:    "303001d34b856296c16c0d40d3cd7750a93d1d2955fa80aa5f40fc8db7b2abdbde53950f4c0d293cdd711a35b67fb1499ae60038614f1394abfa3b4c850d927e1e7769c8eec2d19",
		gy:    "37bf27342da639b6dccfffeb73d69d78c6c27a6009cbbca1980f8533921e8a684423e43bab08a576291af8f461bb2a8b3531d2f0485c19b16e2f1516e23dd3c1a4827af1b8ac15b",
		n:     "3ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffe661ce18ff55987308059b186823851ec7dd9ca1161de93d5174d66e8382e9bb2fe84e47",
		nbits: 570,
	},
}

// BinaryCurveNames lists the NIST binary curves in ascending security order.
var BinaryCurveNames = []string{"B-163", "B-233", "B-283", "B-409", "B-571"}

// NISTBinaryCurve constructs a named NIST binary curve whose field uses the
// given multiplication strategy.
func NISTBinaryCurve(name string, alg gf2.MulAlg) *BinaryCurve {
	def, ok := binaryCurveDefs[name]
	if !ok {
		panic("ec: unknown binary curve " + name)
	}
	f := gf2.NISTField(def.field, alg)
	nWords := (def.nbits + 31) / 32
	n, err := mp.FromHex(def.n, nWords)
	if err != nil {
		panic(err)
	}
	return &BinaryCurve{
		Name:  name,
		F:     f,
		A:     1,
		B:     gf2.MustHex(def.b, f.K),
		Gx:    gf2.MustHex(def.gx, f.K),
		Gy:    gf2.MustHex(def.gy, f.K),
		N:     []uint32(n),
		NBits: def.nbits,
	}
}
