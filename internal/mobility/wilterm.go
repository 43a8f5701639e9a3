package mobility

import "math"

// The willingness term 2^(−Shape·log2(d+1)) of Willingness32's fast
// path, from bit-level log2 and exp2 over the checked-in tables below.
// Every product that feeds an addition is wrapped in an explicit
// float64 conversion, which the spec says rounds, so no GOARCH fuses it
// into a multiply-add: the fast path gives the same bits everywhere.

// Taylor coefficients of log2(1+r) = Σ (−1)^(j+1) r^j / (j·ln 2) and of
// exp(z) = Σ z^j / j!, rounded to float64 from exact constant
// arithmetic at compile time.
const (
	log2C1 = 1 / math.Ln2
	log2C2 = -1 / (2 * math.Ln2)
	log2C3 = 1 / (3 * math.Ln2)
	log2C4 = -1 / (4 * math.Ln2)
	log2C5 = 1 / (5 * math.Ln2)

	expC2 = 1.0 / 2
	expC3 = 1.0 / 6
	expC4 = 1.0 / 24
	expC5 = 1.0 / 120

	// exp2Shift is 0x1.8p52/128: adding it to |y| < 2⁴⁴ rounds y to the
	// nearest multiple of 1/128 and leaves 128·y in the low bits.
	exp2Shift = 0x1.8p45
)

// log2 returns log2(x) for finite x ≥ 1. The rounded top seven mantissa
// bits pick the knot c = 1+k/128 nearest the mantissa (a carry moves it
// to 1 and the exponent up by one), so x = 2^e·m with |m/c − 1| ≤ 2⁻⁸,
// and log2(x) = e − log2(inv_k) + log2(1+r) for r = m·inv_k − 1.
func log2(x float64) float64 {
	b := math.Float64bits(x)
	rb := b + 1<<44
	e := int64(rb>>52) - 1023
	c := &log2Tab[rb>>45&127]
	m := math.Float64frombits(b - uint64(e)<<52)
	r := float64(m*c.inv) - 1
	p := float64(r * (log2C1 + float64(r*(log2C2+float64(r*(log2C3+float64(r*(log2C4+float64(r*log2C5)))))))))
	return (float64(e) + c.log) + p
}

// exp2 returns 2^y for −1010 ≤ y ≤ 0: y = n/128 + f with |f| ≤ 2⁻⁸ and
// 2^y = 2^⌊n/128⌋ · 2^((n mod 128)/128) · exp(f·ln 2), the power of two
// added into the exponent bits; the result is normal.
func exp2(y float64) float64 {
	kd := y + exp2Shift
	ki := math.Float64bits(kd)
	f := y - (kd - exp2Shift)
	z := float64(f * math.Ln2)
	p := float64(z * (1 + float64(z*(expC2+float64(z*(expC3+float64(z*(expC4+float64(z*expC5)))))))))
	t := exp2Tab[ki&127]
	return math.Float64frombits(math.Float64bits(t+float64(t*p)) + ki>>7<<52)
}

// log2Tab[k] holds the knot 1+k/128 of log2's range reduction as
// inv = 1/(1+k/128) rounded to float64 and log = −log2(inv), the
// logarithm of the rounded inv itself rounded to float64, so that
// m·inv − 1 and log describe the same point. Both are correctly rounded
// and checked in as literals (TestWillingnessTablesRegenerate
// recomputes them), not computed at start-up from math.Log2, whose
// results depend on the GOARCH.
var log2Tab = [128]struct{ inv, log float64 }{
	{1, 0},
	{0x1.fc07f01fc07fp-01, 0x1.6fe50b6ef085dp-07},
	{0x1.f81f81f81f82p-01, 0x1.6e79685c2d212p-06},
	{0x1.f44659e4a4271p-01, 0x1.11cd1d513341bp-05},
	{0x1.f07c1f07c1f08p-01, 0x1.6bad3758efd81p-05},
	{0x1.ecc07b301eccp-01, 0x1.c4dfab90aab6ap-05},
	{0x1.e9131abf0b767p-01, 0x1.0eb389fa29f9dp-04},
	{0x1.e573ac901e574p-01, 0x1.3aa2fdd27f1bfp-04},
	{0x1.e1e1e1e1e1e1ep-01, 0x1.663f6fac91318p-04},
	{0x1.de5d6e3f8868ap-01, 0x1.918a16e46335ep-04},
	{0x1.dae6076b981dbp-01, 0x1.bc84240adabb9p-04},
	{0x1.d77b654b82c34p-01, 0x1.e72ec117fa5adp-04},
	{0x1.d41d41d41d41dp-01, 0x1.08c588cda79e5p-03},
	{0x1.d0cb58f6ec074p-01, 0x1.1dcd197552b7dp-03},
	{0x1.cd85689039b0bp-01, 0x1.32ae9e278ae19p-03},
	{0x1.ca4b3055ee191p-01, 0x1.476a9f983f74dp-03},
	{0x1.c71c71c71c71cp-01, 0x1.5c01a39fbd68bp-03},
	{0x1.c3f8f01c3f8fp-01, 0x1.70742d4ef028p-03},
	{0x1.c0e070381c0ep-01, 0x1.84c2bd02f03b6p-03},
	{0x1.bdd2b899406f7p-01, 0x1.98edd077e70e1p-03},
	{0x1.bacf914c1badp-01, 0x1.acf5e2db4ec91p-03},
	{0x1.b7d6c3dda338bp-01, 0x1.c0db6cdd94defp-03},
	{0x1.b4e81b4e81b4fp-01, 0x1.d49ee4c32596cp-03},
	{0x1.b2036406c80d9p-01, 0x1.e840be74e6a4dp-03},
	{0x1.af286bca1af28p-01, 0x1.fbc16b902680dp-03},
	{0x1.ac5701ac5701bp-01, 0x1.0790adbb03009p-02},
	{0x1.a98ef606a63bep-01, 0x1.11307dad30b74p-02},
	{0x1.a6d01a6d01a6dp-01, 0x1.1ac05b291f07p-02},
	{0x1.a41a41a41a41ap-01, 0x1.24407ab0e073ap-02},
	{0x1.a16d3f97a4b02p-01, 0x1.2db10fc4d9aaep-02},
	{0x1.9ec8e951033d9p-01, 0x1.37124cea4cdedp-02},
	{0x1.9c2d14ee4a102p-01, 0x1.406463b1b0448p-02},
	{0x1.999999999999ap-01, 0x1.49a784bcd1b8ap-02},
	{0x1.970e4f80cb872p-01, 0x1.52dbdfc4c96b5p-02},
	{0x1.948b0fcd6e9ep-01, 0x1.5c01a39fbd689p-02},
	{0x1.920fb49d0e229p-01, 0x1.6518fe4677ba6p-02},
	{0x1.8f9c18f9c18fap-01, 0x1.6e221cd9d0cddp-02},
	{0x1.8d3018d3018d3p-01, 0x1.771d2ba7efb3cp-02},
	{0x1.8acb90f6bf3aap-01, 0x1.800a563161c53p-02},
	{0x1.886e5f0abb04ap-01, 0x1.88e9c72e0b224p-02},
	{0x1.8618618618618p-01, 0x1.91bba891f170ap-02},
	{0x1.83c977ab2beddp-01, 0x1.9a802391e233p-02},
	{0x1.8181818181818p-01, 0x1.a33760a7f6051p-02},
	{0x1.7f405fd017f4p-01, 0x1.abe18797f1f4ap-02},
	{0x1.7d05f417d05f4p-01, 0x1.b47ebf73882a1p-02},
	{0x1.7ad2208e0ecc3p-01, 0x1.bd0f2e9e79032p-02},
	{0x1.78a4c8178a4c8p-01, 0x1.c592fad295b57p-02},
	{0x1.767dce434a9b1p-01, 0x1.ce0a4923a587dp-02},
	{0x1.745d1745d1746p-01, 0x1.d6753e032ea0ep-02},
	{0x1.724287f46debcp-01, 0x1.ded3fd442364cp-02},
	{0x1.702e05c0b817p-01, 0x1.e726aa1e754d3p-02},
	{0x1.6e1f76b4337c7p-01, 0x1.ef6d67328e22p-02},
	{0x1.6c16c16c16c17p-01, 0x1.f7a8568cb06cep-02},
	{0x1.6a13cd153729p-01, 0x1.ffd799a83ff9cp-02},
	{0x1.6816816816817p-01, 0x1.03fda8b97997ep-01},
	{0x1.661ec6a5122f9p-01, 0x1.0809cf27f703dp-01},
	{0x1.642c8590b2164p-01, 0x1.0c10500d63aa7p-01},
	{0x1.623fa7701624p-01, 0x1.10113b153c8eap-01},
	{0x1.6058160581606p-01, 0x1.140c9faa1e543p-01},
	{0x1.5e75bb8d015e7p-01, 0x1.18028cf72976bp-01},
	{0x1.5c9882b931057p-01, 0x1.1bf311e95d00ep-01},
	{0x1.5ac056b015acp-01, 0x1.1fde3d30e8127p-01},
	{0x1.58ed2308158edp-01, 0x1.23c41d42727c8p-01},
	{0x1.571ed3c506b3ap-01, 0x1.27a4c0585cbf7p-01},
	{0x1.5555555555555p-01, 0x1.2b803473f7ad2p-01},
	{0x1.5390948f40febp-01, 0x1.2f56875eb3f26p-01},
	{0x1.51d07eae2f815p-01, 0x1.3327c6ab49ca7p-01},
	{0x1.5015015015015p-01, 0x1.36f3ffb6d9162p-01},
	{0x1.4e5e0a72f0539p-01, 0x1.3abb3faa02168p-01},
	{0x1.4cab88725af6ep-01, 0x1.3e7d9379f7017p-01},
	{0x1.4afd6a052bf5bp-01, 0x1.423b07e986aa8p-01},
	{0x1.49539e3b2d067p-01, 0x1.45f3a98a20738p-01},
	{0x1.47ae147ae147bp-01, 0x1.49a784bcd1b8bp-01},
	{0x1.460cbc7f5cf9ap-01, 0x1.4d56a5b33cec5p-01},
	{0x1.446f86562d9fbp-01, 0x1.510118708a8f9p-01},
	{0x1.42d6625d51f87p-01, 0x1.54a6e8ca5438ep-01},
	{0x1.4141414141414p-01, 0x1.5848226989d34p-01},
	{0x1.3fb013fb013fbp-01, 0x1.5be4d0cb51435p-01},
	{0x1.3e22cbce4a902p-01, 0x1.5f7cff41e09bp-01},
	{0x1.3c995a47babe7p-01, 0x1.6310b8f553049p-01},
	{0x1.3b13b13b13b14p-01, 0x1.66a008e4788cbp-01},
	{0x1.3991c2c187f63p-01, 0x1.6a2af9e5a0f0bp-01},
	{0x1.3813813813814p-01, 0x1.6db196a761949p-01},
	{0x1.3698df3de0748p-01, 0x1.7133e9b156c7bp-01},
	{0x1.3521cfb2b78c1p-01, 0x1.74b1fd64e0754p-01},
	{0x1.33ae45b57bcb2p-01, 0x1.782bdbfdda657p-01},
	{0x1.323e34a2b10bfp-01, 0x1.7ba18f93502e5p-01},
	{0x1.30d190130d19p-01, 0x1.7f1322182cf16p-01},
	{0x1.2f684bda12f68p-01, 0x1.82809d5be7074p-01},
	{0x1.2e025c04b8097p-01, 0x1.85ea0b0b27b26p-01},
	{0x1.2c9fb4d812cap-01, 0x1.894f74b06ef8bp-01},
	{0x1.2b404ad012b4p-01, 0x1.8cb0e3b4b3bbep-01},
	{0x1.29e4129e4129ep-01, 0x1.900e6160002cep-01},
	{0x1.288b01288b013p-01, 0x1.9367f6da0ab2dp-01},
	{0x1.27350b8812735p-01, 0x1.96bdad2acb5f6p-01},
	{0x1.25e22708092f1p-01, 0x1.9a0f8d3b0e05p-01},
	{0x1.2492492492492p-01, 0x1.9d5d9fd5010b4p-01},
	{0x1.23456789abcdfp-01, 0x1.a0a7eda4c112dp-01},
	{0x1.21fb78121fb78p-01, 0x1.a3ee7f38e181fp-01},
	{0x1.20b470c67c0d9p-01, 0x1.a7315d02f20c7p-01},
	{0x1.1f7047dc11f7p-01, 0x1.aa708f58014d4p-01},
	{0x1.1e2ef3b3fb874p-01, 0x1.adac1e711c833p-01},
	{0x1.1cf06ada2811dp-01, 0x1.b0e4126bcc86cp-01},
	{0x1.1bb4a4046ed29p-01, 0x1.b418734a9008cp-01},
	{0x1.1a7b9611a7b96p-01, 0x1.b74948f5532dap-01},
	{0x1.19453808ca29cp-01, 0x1.ba769b39e4964p-01},
	{0x1.1811811811812p-01, 0x1.bda071cc67e6cp-01},
	{0x1.16e0689427379p-01, 0x1.c0c6d447c5dd3p-01},
	{0x1.15b1e5f75270dp-01, 0x1.c3e9ca2e1a055p-01},
	{0x1.1485f0e0acd3bp-01, 0x1.c7095ae91e1c8p-01},
	{0x1.135c81135c811p-01, 0x1.ca258dca93317p-01},
	{0x1.12358e75d3033p-01, 0x1.cd3e6a0ca8908p-01},
	{0x1.1111111111111p-01, 0x1.d053f6d260897p-01},
	{0x1.0fef010fef011p-01, 0x1.d3663b27f31d5p-01},
	{0x1.0ecf56be69c9p-01, 0x1.d6753e032ea0fp-01},
	{0x1.0db20a88f4696p-01, 0x1.d9810643d6614p-01},
	{0x1.0c9714fbcda3bp-01, 0x1.dc899ab3ff56cp-01},
	{0x1.0b7e6ec259dc8p-01, 0x1.df8f02086af2bp-01},
	{0x1.0a6810a6810a7p-01, 0x1.e29142e0e013fp-01},
	{0x1.0953f39010954p-01, 0x1.e59063c8822cep-01},
	{0x1.0842108421084p-01, 0x1.e88c6b3626a73p-01},
	{0x1.073260a47f7c6p-01, 0x1.eb855f8ca88fcp-01},
	{0x1.0624dd2f1a9fcp-01, 0x1.ee7b471b3a95p-01},
	{0x1.05197f7d73404p-01, 0x1.f16e281db763p-01},
	{0x1.041041041041p-01, 0x1.f45e08bcf0656p-01},
	{0x1.03091b51f5e1ap-01, 0x1.f74aef0efafafp-01},
	{0x1.0204081020408p-01, 0x1.fa34e1177c234p-01},
	{0x1.010101010101p-01, 0x1.fd1be4c7f2af9p-01},
}

// exp2Tab[j] is 2^(j/128) correctly rounded to float64, checked in as a
// literal for the same reason as log2Tab.
var exp2Tab = [128]float64{
	1, 0x1.0163da9fb3335p+00, 0x1.02c9a3e778061p+00, 0x1.04315e86e7f85p+00,
	0x1.059b0d3158574p+00, 0x1.0706b29ddf6dep+00, 0x1.0874518759bc8p+00, 0x1.09e3ecac6f383p+00,
	0x1.0b5586cf9890fp+00, 0x1.0cc922b7247f7p+00, 0x1.0e3ec32d3d1a2p+00, 0x1.0fb66affed31bp+00,
	0x1.11301d0125b51p+00, 0x1.12abdc06c31ccp+00, 0x1.1429aaea92dep+00, 0x1.15a98c8a58e51p+00,
	0x1.172b83c7d517bp+00, 0x1.18af9388c8deap+00, 0x1.1a35beb6fcb75p+00, 0x1.1bbe084045cd4p+00,
	0x1.1d4873168b9aap+00, 0x1.1ed5022fcd91dp+00, 0x1.2063b88628cd6p+00, 0x1.21f49917ddc96p+00,
	0x1.2387a6e756238p+00, 0x1.251ce4fb2a63fp+00, 0x1.26b4565e27cddp+00, 0x1.284dfe1f56381p+00,
	0x1.29e9df51fdee1p+00, 0x1.2b87fd0dad99p+00, 0x1.2d285a6e4030bp+00, 0x1.2ecafa93e2f56p+00,
	0x1.306fe0a31b715p+00, 0x1.32170fc4cd831p+00, 0x1.33c08b26416ffp+00, 0x1.356c55f929ff1p+00,
	0x1.371a7373aa9cbp+00, 0x1.38cae6d05d866p+00, 0x1.3a7db34e59ff7p+00, 0x1.3c32dc313a8e5p+00,
	0x1.3dea64c123422p+00, 0x1.3fa4504ac801cp+00, 0x1.4160a21f72e2ap+00, 0x1.431f5d950a897p+00,
	0x1.44e086061892dp+00, 0x1.46a41ed1d0057p+00, 0x1.486a2b5c13cdp+00, 0x1.4a32af0d7d3dep+00,
	0x1.4bfdad5362a27p+00, 0x1.4dcb299fddd0dp+00, 0x1.4f9b2769d2ca7p+00, 0x1.516daa2cf6642p+00,
	0x1.5342b569d4f82p+00, 0x1.551a4ca5d920fp+00, 0x1.56f4736b527dap+00, 0x1.58d12d497c7fdp+00,
	0x1.5ab07dd485429p+00, 0x1.5c9268a5946b7p+00, 0x1.5e76f15ad2148p+00, 0x1.605e1b976dc09p+00,
	0x1.6247eb03a5585p+00, 0x1.6434634ccc32p+00, 0x1.6623882552225p+00, 0x1.68155d44ca973p+00,
	0x1.6a09e667f3bcdp+00, 0x1.6c012750bdabfp+00, 0x1.6dfb23c651a2fp+00, 0x1.6ff7df9519484p+00,
	0x1.71f75e8ec5f74p+00, 0x1.73f9a48a58174p+00, 0x1.75feb564267c9p+00, 0x1.780694fde5d3fp+00,
	0x1.7a11473eb0187p+00, 0x1.7c1ed0130c132p+00, 0x1.7e2f336cf4e62p+00, 0x1.80427543e1a12p+00,
	0x1.82589994cce13p+00, 0x1.8471a4623c7adp+00, 0x1.868d99b4492edp+00, 0x1.88ac7d98a6699p+00,
	0x1.8ace5422aa0dbp+00, 0x1.8cf3216b5448cp+00, 0x1.8f1ae99157736p+00, 0x1.9145b0b91ffc6p+00,
	0x1.93737b0cdc5e5p+00, 0x1.95a44cbc8520fp+00, 0x1.97d829fde4e5p+00, 0x1.9a0f170ca07bap+00,
	0x1.9c49182a3f09p+00, 0x1.9e86319e32323p+00, 0x1.a0c667b5de565p+00, 0x1.a309bec4a2d33p+00,
	0x1.a5503b23e255dp+00, 0x1.a799e1330b358p+00, 0x1.a9e6b5579fdbfp+00, 0x1.ac36bbfd3f37ap+00,
	0x1.ae89f995ad3adp+00, 0x1.b0e07298db666p+00, 0x1.b33a2b84f15fbp+00, 0x1.b59728de5593ap+00,
	0x1.b7f76f2fb5e47p+00, 0x1.ba5b030a1064ap+00, 0x1.bcc1e904bc1d2p+00, 0x1.bf2c25bd71e09p+00,
	0x1.c199bdd85529cp+00, 0x1.c40ab5fffd07ap+00, 0x1.c67f12e57d14bp+00, 0x1.c8f6d9406e7b5p+00,
	0x1.cb720dcef9069p+00, 0x1.cdf0b555dc3fap+00, 0x1.d072d4a07897cp+00, 0x1.d2f87080d89f2p+00,
	0x1.d5818dcfba487p+00, 0x1.d80e316c98398p+00, 0x1.da9e603db3285p+00, 0x1.dd321f301b46p+00,
	0x1.dfc97337b9b5fp+00, 0x1.e264614f5a129p+00, 0x1.e502ee78b3ff6p+00, 0x1.e7a51fbc74c83p+00,
	0x1.ea4afa2a490dap+00, 0x1.ecf482d8e67f1p+00, 0x1.efa1bee615a27p+00, 0x1.f252b376bba97p+00,
	0x1.f50765b6e454p+00, 0x1.f7bfdad9cbe14p+00, 0x1.fa7c1819e90d8p+00, 0x1.fd3c22b8f71f1p+00,
}
