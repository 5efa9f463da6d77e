package dycore

import "math"

// The exp and log of the equation of state (eos) and the reference
// geopotential (refPhi): Tang's table-driven method, the scheme of the ARM
// optimized-routines and musl exp and log. A 128-entry table reduces the
// argument to an interval short enough that plain Taylor coefficients
// suffice (truncation below 2^-58 relative for exp, 2e-18 absolute for
// log), so no fitted constants are needed.
// Inputs off the table path go to math.Exp and math.Log, so a NaN reaches
// the health sentinels as before. explog_test.go regenerates both tables
// from math/big and measures both functions against a math/big reference.

const (
	// Adding and subtracting 1.5*2^52 rounds a float64 below 2^51 in
	// magnitude to an integer, leaving the integer in the low bits.
	expShift = 0x1.8p52
	// ln2/128 in two parts; n*ln2hiN is exact for |n| < 2^17.
	ln2hiN = 0x1.62e42fefa0000p-8
	ln2loN = math.Ln2/128 - ln2hiN
	// ln2 in two parts; k*ln2hi is exact for |k| < 2^11.
	ln2hi = 0x1.62e42fefa3800p-1
	ln2lo = math.Ln2 - ln2hi
	// logOff is the bits of 0x1.6p-1: tabLog reduces x to z = x/2^k in
	// [0x1.6p-1, 0x1.6p0), which holds 1.
	logOff = 0x3fe6000000000000
)

// tabExp returns e^x. The table path covers 2^-1022 <= |x| < 512;
// everything else (NaN, ±Inf, zero, subnormals, |x| >= 512) is
// math.Exp(x).
func tabExp(x float64) float64 {
	if a := math.Abs(x); !(a >= 0x1p-1022 && a < 512) {
		return math.Exp(x)
	}
	// x = n*ln2/128 + r with |r| <= ln2/256 and n = 128m + j, so
	// e^x = 2^m * 2^(j/128) * e^r, where 2^(j/128) = scale*(1 + tail).
	kd := x*(128/math.Ln2) + expShift
	n := math.Float64bits(kd)
	kd -= expShift
	r := x - kd*ln2hiN - kd*ln2loN
	t := &expTab[n%128]
	// t[1] is scale's bits minus j<<45, and n<<45 = j<<45 + m<<52 (mod
	// 2^64): the sum is the bits of scale*2^m.
	scale := math.Float64frombits(t[1] + n<<45)
	r2 := r * r
	p := math.Float64frombits(t[0]) + r + r2*(1.0/2+r*(1.0/6)) + r2*r2*(1.0/24+r*(1.0/120))
	return scale + scale*p
}

// tabLog returns ln x. The table path covers every normal x > 0;
// everything else (x <= 0, NaN, +Inf, subnormals) is math.Log(x).
func tabLog(x float64) float64 {
	ix := math.Float64bits(x)
	if ix-0x0010000000000000 >= 0x7ff0000000000000-0x0010000000000000 {
		return math.Log(x)
	}
	// x = 2^k * z with z in [0x1.6p-1, 0x1.6p0); the top seven mantissa
	// bits of z pick an entry c, the center of their interval, so
	// ln x = k*ln2 + ln c + log1p(r) with r = z/c - 1, |r| < 1/256.
	tmp := ix - logOff
	t := &logTab[(tmp>>45)%128]
	k := float64(int64(tmp) >> 52)
	z := math.Float64frombits(ix - tmp&(0xfff<<52))
	r := math.FMA(z, math.Float64frombits(t[0]), -1)
	logc, logcLo := math.Float64frombits(t[1]), math.Float64frombits(t[2])
	// hi + lo = k*ln2 + ln c + r, the rounding error of both sums kept in
	// lo (|k*ln2hi| > |ln c| whenever k != 0).
	a := k * ln2hi
	w := a + logc
	hi := w + r
	lo := a - w + logc + (w - hi + r) + (k*ln2lo + logcLo)
	r2 := r * r
	return lo + r2*(-1.0/2) + r*r2*(1.0/3+r*(-1.0/4)+r2*(1.0/5+r*(-1.0/6))) + hi
}

// expTab[j] = {bits of tail, bits of scale - j<<45}, where scale is
// 2^(j/128) rounded to float64 and tail = (2^(j/128) - scale)/scale.
var expTab = [128][2]uint64{
	{0x0000000000000000, 0x3ff0000000000000}, {0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335},
	{0xbc7160139cd8dc5d, 0x3fefec9a3e778061}, {0xbc905e7a108766d1, 0x3fefe315e86e7f85},
	{0x3c8cd2523567f613, 0x3fefd9b0d3158574}, {0xbc8bce8023f98efa, 0x3fefd06b29ddf6de},
	{0x3c60f74e61e6c861, 0x3fefc74518759bc8}, {0x3c90a3e45b33d399, 0x3fefbe3ecac6f383},
	{0x3c979aa65d837b6d, 0x3fefb5586cf9890f}, {0x3c8eb51a92fdeffc, 0x3fefac922b7247f7},
	{0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2}, {0xbc6a033489906e0b, 0x3fef9b66affed31b},
	{0xbc9556522a2fbd0e, 0x3fef9301d0125b51}, {0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc},
	{0xbc91c923b9d5f416, 0x3fef829aaea92de0}, {0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51},
	{0xbc801b15eaa59348, 0x3fef72b83c7d517b}, {0xbc8f1ff055de323d, 0x3fef6af9388c8dea},
	{0x3c8b898c3f1353bf, 0x3fef635beb6fcb75}, {0xbc96d99c7611eb26, 0x3fef5be084045cd4},
	{0x3c9aecf73e3a2f60, 0x3fef54873168b9aa}, {0xbc8fe782cb86389d, 0x3fef4d5022fcd91d},
	{0x3c8a6f4144a6c38d, 0x3fef463b88628cd6}, {0x3c807a05b0e4047d, 0x3fef3f49917ddc96},
	{0x3c968efde3a8a894, 0x3fef387a6e756238}, {0x3c875e18f274487d, 0x3fef31ce4fb2a63f},
	{0x3c80472b981fe7f2, 0x3fef2b4565e27cdd}, {0xbc96b87b3f71085e, 0x3fef24dfe1f56381},
	{0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1}, {0xbc3d219b1a6fbffa, 0x3fef187fd0dad990},
	{0x3c8b3782720c0ab4, 0x3fef1285a6e4030b}, {0x3c6e149289cecb8f, 0x3fef0cafa93e2f56},
	{0x3c834d754db0abb6, 0x3fef06fe0a31b715}, {0x3c864201e2ac744c, 0x3fef0170fc4cd831},
	{0x3c8fdd395dd3f84a, 0x3feefc08b26416ff}, {0xbc86a3803b8e5b04, 0x3feef6c55f929ff1},
	{0xbc924aedcc4b5068, 0x3feef1a7373aa9cb}, {0xbc9907f81b512d8e, 0x3feeecae6d05d866},
	{0xbc71d1e83e9436d2, 0x3feee7db34e59ff7}, {0xbc991919b3ce1b15, 0x3feee32dc313a8e5},
	{0x3c859f48a72a4c6d, 0x3feedea64c123422}, {0xbc9312607a28698a, 0x3feeda4504ac801c},
	{0xbc58a78f4817895b, 0x3feed60a21f72e2a}, {0xbc7c2c9b67499a1b, 0x3feed1f5d950a897},
	{0x3c4363ed60c2ac11, 0x3feece086061892d}, {0x3c9666093b0664ef, 0x3feeca41ed1d0057},
	{0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0}, {0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de},
	{0x3c7690cebb7aafb0, 0x3feebfdad5362a27}, {0x3c931dbdeb54e077, 0x3feebcb299fddd0d},
	{0xbc8f94340071a38e, 0x3feeb9b2769d2ca7}, {0xbc87deccdc93a349, 0x3feeb6daa2cf6642},
	{0xbc78dec6bd0f385f, 0x3feeb42b569d4f82}, {0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f},
	{0x3c93350518fdd78e, 0x3feeaf4736b527da}, {0x3c7b98b72f8a9b05, 0x3feead12d497c7fd},
	{0x3c9063e1e21c5409, 0x3feeab07dd485429}, {0x3c34c7855019c6ea, 0x3feea9268a5946b7},
	{0x3c9432e62b64c035, 0x3feea76f15ad2148}, {0xbc8ce44a6199769f, 0x3feea5e1b976dc09},
	{0xbc8c33c53bef4da8, 0x3feea47eb03a5585}, {0xbc845378892be9ae, 0x3feea34634ccc320},
	{0xbc93cedd78565858, 0x3feea23882552225}, {0x3c5710aa807e1964, 0x3feea155d44ca973},
	{0xbc93b3efbf5e2228, 0x3feea09e667f3bcd}, {0xbc6a12ad8734b982, 0x3feea012750bdabf},
	{0xbc6367efb86da9ee, 0x3fee9fb23c651a2f}, {0xbc80dc3d54e08851, 0x3fee9f7df9519484},
	{0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74}, {0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174},
	{0xbc8619321e55e68a, 0x3fee9feb564267c9}, {0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f},
	{0xbc7b32dcb94da51d, 0x3feea11473eb0187}, {0x3c94ecfd5467c06b, 0x3feea1ed0130c132},
	{0x3c65ebe1abd66c55, 0x3feea2f336cf4e62}, {0xbc88a1c52fb3cf42, 0x3feea427543e1a12},
	{0xbc9369b6f13b3734, 0x3feea589994cce13}, {0xbc805e843a19ff1e, 0x3feea71a4623c7ad},
	{0xbc94d450d872576e, 0x3feea8d99b4492ed}, {0x3c90ad675b0e8a00, 0x3feeaac7d98a6699},
	{0x3c8db72fc1f0eab4, 0x3feeace5422aa0db}, {0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c},
	{0x3c7bf68359f35f44, 0x3feeb1ae99157736}, {0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6},
	{0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5}, {0xbc6c23f97c90b959, 0x3feeba44cbc8520f},
	{0xbc92434322f4f9aa, 0x3feebd829fde4e50}, {0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba},
	{0x3c71affc2b91ce27, 0x3feec49182a3f090}, {0x3c6dd235e10a73bb, 0x3feec86319e32323},
	{0xbc87c50422622263, 0x3feecc667b5de565}, {0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33},
	{0xbc91bbd1d3bcbb15, 0x3feed503b23e255d}, {0x3c90cc319cee31d2, 0x3feed99e1330b358},
	{0x3c8469846e735ab3, 0x3feede6b5579fdbf}, {0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a},
	{0x3c8c1a7792cb3387, 0x3feee89f995ad3ad}, {0xbc907b8f4ad1d9fa, 0x3feeee07298db666},
	{0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb}, {0xbc90a40e3da6f640, 0x3feef9728de5593a},
	{0xbc68d6f438ad9334, 0x3feeff76f2fb5e47}, {0xbc91eee26b588a35, 0x3fef05b030a1064a},
	{0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2}, {0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09},
	{0x3c736eae30af0cb3, 0x3fef199bdd85529c}, {0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a},
	{0x3c84e08fd10959ac, 0x3fef27f12e57d14b}, {0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5},
	{0x3c676b2c6c921968, 0x3fef3720dcef9069}, {0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa},
	{0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c}, {0xbc900dae3875a949, 0x3fef4f87080d89f2},
	{0x3c74a385a63d07a7, 0x3fef5818dcfba487}, {0xbc82919e2040220f, 0x3fef60e316c98398},
	{0x3c8e5a50d5c192ac, 0x3fef69e603db3285}, {0x3c843a59ac016b4b, 0x3fef7321f301b460},
	{0xbc82d52107b43e1f, 0x3fef7c97337b9b5f}, {0xbc892ab93b470dc9, 0x3fef864614f5a129},
	{0x3c74b604603a88d3, 0x3fef902ee78b3ff6}, {0x3c83c5ec519d7271, 0x3fef9a51fbc74c83},
	{0xbc8ff7128fd391f0, 0x3fefa4afa2a490da}, {0xbc8dae98e223747d, 0x3fefaf482d8e67f1},
	{0x3c8ec3bc41aa2008, 0x3fefba1bee615a27}, {0x3c842b94c3a9eb32, 0x3fefc52b376bba97},
	{0x3c8a64a931d185ee, 0x3fefd0765b6e4540}, {0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14},
	{0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8}, {0x3c5305c14160cc89, 0x3feff3c22b8f71f1},
}

// logTab[i] = {bits of 1/c, bits of ln c in two parts}, for c the center
// of interval i of z: 1/c rounded to float64, then ln c for the c that
// rounded reciprocal stands for, to about 106 bits. One float64 of ln c
// would cost up to an ulp of ln x where ln x is small.
var logTab = [128][3]uint64{
	{0x3ff734f0c541fe8d, 0xbfd7cc7f7db46a0e, 0xbc7e3c7fdc323c2d}, {0x3ff713786d9c7c09, 0xbfd76feecb947176, 0x3c7398d9eb4ea363},
	{0x3ff6f26016f26017, 0xbfd713e33a46a17c, 0x3c6f6cf40b5c71a6}, {0x3ff6d1a62681c861, 0xbfd6b85b4cffa3fd, 0x3c61af2c8dafcb08},
	{0x3ff6b1490aa31a3d, 0xbfd65d558d4ce00b, 0x3c74e05a4748480a}, {0x3ff691473a88d0c0, 0xbfd602d08af091ec, 0xbc7a45db7cfd9230},
	{0x3ff6719f3601671a, 0xbfd5a8cadbbedfa1, 0xbc364f5081307f22}, {0x3ff6524f853b4aa3, 0xbfd54f431b7be1a8, 0x3c50b3f6ef6ae452},
	{0x3ff63356b88ac0de, 0xbfd4f637ebba9810, 0x3c768cb3124b9245}, {0x3ff614b36831ae94, 0xbfd49da7f3bcc420, 0x3c6d964a168ccacb},
	{0x3ff5f66434292dfc, 0xbfd44591e0539f49, 0xbc4a76d6dc2782da}, {0x3ff5d867c3ece2a5, 0xbfd3edf463c1683e, 0x3c6c852fe587def8},
	{0x3ff5babcc647fa91, 0xbfd396ce359bbf53, 0x3c45c5663663d163}, {0x3ff59d61f123ccaa, 0xbfd3401e12aecba0, 0xbc6f95523adc5c9f},
	{0x3ff5805601580560, 0xbfd2e9e2bce12286, 0x3c6f3ed72e23e134}, {0x3ff56397ba7c52e2, 0xbfd2941afb186b7c, 0xbc46a4678ebaa300},
	{0x3ff54725e6bb82fe, 0xbfd23ec5991eba49, 0xbc276eba35bbf0df}, {0x3ff52aff56a8054b, 0xbfd1e9e1678899f5, 0xbc564b0dd2687939},
	{0x3ff50f22e111c4c5, 0xbfd1956d3b9bc2f9, 0xbc50e75a3542856f}, {0x3ff4f38f62dd4c9b, 0xbfd14167ef367784, 0xbc7ef824daaf53e9},
	{0x3ff4d843bedc2c4c, 0xbfd0edd060b78082, 0xbc62d4b610d7d4f5}, {0x3ff4bd3edda68fe1, 0xbfd09aa572e6c6d4, 0xbc7f9e17343426a9},
	{0x3ff4a27fad76014a, 0xbfd047e60cde83b7, 0xbc708869cbf9e344}, {0x3ff4880522014880, 0xbfcfeb2233ea07cb, 0xbc28de00938b4c30},
	{0x3ff46dce34596066, 0xbfcf474b134df228, 0x3c39f1df7b5daab7}, {0x3ff453d9e2c776ca, 0xbfcea4449f04aaf5, 0x3c6f33919ab94074},
	{0x3ff43a2730abee4d, 0xbfce020cc6235ab5, 0x3c6f0adb91423f18}, {0x3ff420b5265e5951, 0xbfcd60a17f903514, 0x3c650df841a71b7a},
	{0x3ff40782d10e6566, 0xbfccc000c9db3c52, 0xbc567a2a8500729e}, {0x3ff3ee8f42a5af07, 0xbfcc2028ab17f9b5, 0xbc6c11aa3853a5f0},
	{0x3ff3d5d991aa75c6, 0xbfcb811730b823d4, 0x3c5d7c46328983c6}, {0x3ff3bd60d9232955, 0xbfcae2ca6f672bd8, 0x3c6a4a356155f779},
	{0x3ff3a524387ac822, 0xbfca454082e6ab03, 0x3c5e0df823a3cb3d}, {0x3ff38d22d366088e, 0xbfc9a8778debaa3a, 0xbc528fbfb0e3f0fc},
	{0x3ff3755bd1c945ee, 0xbfc90c6db9fcbcdb, 0x3c5357718d7ca4cf}, {0x3ff35dce5f9f2af8, 0xbfc871213750e994, 0x3c6a97a0ca115d60},
	{0x3ff34679ace01346, 0xbfc7d6903caf5acd, 0x3c60b17c301d6e14}, {0x3ff32f5ced6a1dfa, 0xbfc73cb9074fd14d, 0x3c6721a000b4cf01},
	{0x3ff3187758e9ebb6, 0xbfc6a399dabbd383, 0xbc676332bd4b341f}, {0x3ff301c82ac40260, 0xbfc60b3100b09474, 0xbc6526cee0fd7f4a},
	{0x3ff2eb4ea1fed14b, 0xbfc5737cc9018cdd, 0x3c600b28ef013c72}, {0x3ff2d50a012d50a0, 0xbfc4dc7b897bc1c7, 0xbc4b60ae1ff0e82e},
	{0x3ff2bef98e5a3711, 0xbfc4462b9dc9b3dc, 0x3c485388d830c709}, {0x3ff2a91c92f3c105, 0xbfc3b08b6757f2a7, 0xbc65e1ad9be0a4cd},
	{0x3ff293725bb804a5, 0xbfc31b994d3a4f86, 0x3c61238b5efe0665}, {0x3ff27dfa38a1ce4d, 0xbfc28753bc11aba2, 0x3c67394d9fa33313},
	{0x3ff268b37cd60127, 0xbfc1f3b925f25d44, 0xbc608b27be4e6b15}, {0x3ff2539d7e9177b2, 0xbfc160c8024b27b0, 0x3c4355bfd870afeb},
	{0x3ff23eb79717605b, 0xbfc0ce7ecdccc28b, 0xbc41b57fea88da98}, {0x3ff22a0122a0122a, 0xbfc03cdc0a51ec0d, 0xbc619e2d3f8b7d10},
	{0x3ff21579804855e6, 0xbfbf57bc7d9005db, 0x3c5d361574fb24e2}, {0x3ff2012012012012, 0xbfbe3707ee30487b, 0xbc49399d9aaf3b33},
	{0x3ff1ecf43c7fb84c, 0xbfbd179788219362, 0x3c5b12841044a96c}, {0x3ff1d8f5672e4abd, 0xbfbbf968769fca18, 0x3c506e4fb7af9c69},
	{0x3ff1c522fc1ce059, 0xbfbadc77ee5aea8e, 0xbc5d7d8f39bee658}, {0x3ff1b17c67f2bae3, 0xbfb9c0c32d4d254d, 0x3c5627a0e199f569},
	{0x3ff19e0119e0119e, 0xbfb8a6477a91dc29, 0x3c53d4190a482421}, {0x3ff18ab083902bdb, 0xbfb78d02263d82d7, 0xbc5cbca5b4fdb87e},
	{0x3ff1778a191bd684, 0xbfb674f089365a78, 0xbc4ca64e9980e048}, {0x3ff1648d50fc3201, 0xbfb55e10050e0382, 0xbc59a0629e3973e4},
	{0x3ff151b9a3fdd5c9, 0xbfb4485e03dbdfb0, 0xbc53ba349aadbc6d}, {0x3ff13f0e8d344724, 0xbfb333d7f8183f4a, 0x3c4adaa06e211e9e},
	{0x3ff12c8b89edc0ac, 0xbfb2207b5c7854a1, 0xbc5b3f0431efb154}, {0x3ff11a3019a74826, 0xbfb10e45b3cae829, 0xbc59b5ed72e6d974},
	{0x3ff107fbbe011080, 0xbfaffa6911ab9309, 0x3c4cd9f1f95c2ef1}, {0x3ff0f5edfab325a2, 0xbfadda8adc67ee59, 0x3c431936790bb3b2},
	{0x3ff0e40655826011, 0xbfabbcebfc68f424, 0x3c4cd1862f854848}, {0x3ff0d24456359e3a, 0xbfa9a187b573de81, 0xbbfb13b26f298a6a},
	{0x3ff0c0a7868b4171, 0xbfa788595a3577c8, 0xbc12f7c4c5b3c8bd}, {0x3ff0af2f722eecb5, 0xbfa5715c4c03cee1, 0xbc45101dc4ebf91f},
	{0x3ff09ddba6af8360, 0xbfa35c8bfaa13069, 0x3c050830a65543a8}, {0x3ff08cabb37565e2, 0xbfa149e3e4005a8d, 0x3c3a9a4168fcebeb},
	{0x3ff07b9f29b8eae2, 0xbf9e72bf2813ce6a, 0x3c38a4bba6a354fa}, {0x3ff06ab59c7912fb, 0xbf9a55f548c5c427, 0xbc2f60d2fc36a0d9},
	{0x3ff059eea0727586, 0xbf963d6178690bbe, 0x3c318ed4d357c9dc}, {0x3ff04949cc1664c5, 0xbf9228fb1fea2e0a, 0xbc23284991fe3d5c},
	{0x3ff038c6b78247fc, 0xbf8c317384c75f0d, 0xbc2806208c04c21f}, {0x3ff02864fc7729e9, 0xbf841929f968330c, 0xbc23aae809b43dd0},
	{0x3ff0182436517a37, 0xbf78121214586b02, 0x3c1c7d68c0d910f2}, {0x3ff0080402010080, 0xbf60040155d5881e, 0x3be8f98e1113f503},
	{0x3fefe01fe01fe020, 0x3f6ff00aa2b10ba0, 0x3c02821ad5a6d357}, {0x3fefa11caa01fa12, 0x3f87dc475f810a69, 0x3c274944bc161072},
	{0x3fef6310aca0dbb5, 0x3f93cea44346a584, 0xbc2865ad48159d00}, {0x3fef25f644230ab5, 0x3f9b9fc027af919a, 0xbc390ae69229dc86},
	{0x3feee9c7f8458e02, 0x3fa1b0d98923d97f, 0xbc474d7444dd6241}, {0x3feeae807aba01eb, 0x3fa58a5bafc8e4d3, 0xbbfcab8569c56e40},
	{0x3fee741aa59750e4, 0x3fa95c830ec8e3f2, 0x3c3eb41d00a417e9}, {0x3fee3a9179dc1a73, 0x3fad276b8adb0b56, 0x3c4078f14c95ff53},
	{0x3fee01e01e01e01e, 0x3fb075983598e471, 0x3c5006d2999e22dc}, {0x3fedca01dca01dca, 0x3fb253f62f0a1417, 0x3c21f6d34e01d981},
	{0x3fed92f2231e7f8a, 0x3fb42edcbea646ee, 0xbc5511583653349b}, {0x3fed5cac807572b2, 0x3fb60658a93750c4, 0xbc4f108b1d8436d3},
	{0x3fed272ca3fc5b1a, 0x3fb7da766d7b12d0, 0x3c4a2240644d7da2}, {0x3fecf26e5c44bfc6, 0x3fb9ab42462033ae, 0xbc4a099e1c184e8e},
	{0x3fecbe6d9601cbe7, 0x3fbb78c82bb0eda0, 0xbc53ef0e61f9b03c}, {0x3fec8b265afb8a42, 0x3fbd4313d66cb35d, 0x3c5b90dd951d90fa},
	{0x3fec5894d10d4986, 0x3fbf0a30c01162a4, 0x3c48be64b8b7759b}, {0x3fec26b5392ea01c, 0x3fc0671512ca596f, 0xbc52f39b81479b67},
	{0x3febf583ee868d8b, 0x3fc14785846742ac, 0x3c394409f1d3f83a}, {0x3febc4fd65883e7b, 0x3fc2266f190a5acd, 0xbc6dab840e7f6177},
	{0x3feb951e2b18ff23, 0x3fc303d718e47fd5, 0xbc6b5ae71f658247}, {0x3feb65e2e3beee05, 0x3fc3dfc2b0ecc62a, 0x3c6ba62b8c13f7f4},
	{0x3feb37484ad806ce, 0x3fc4ba36f39a55e5, 0xbc6f767e433c98aa}, {0x3feb094b31d922a4, 0x3fc59338d9982085, 0x3c68d16eaaba9419},
	{0x3feadbe87f94905e, 0x3fc66acd4272ad51, 0xbc49201c9c3d5165}, {0x3feaaf1d2f87ebfd, 0x3fc740f8f54037a3, 0x3c56d9bf9d57b326},
	{0x3fea82e65130e159, 0x3fc815c0a14357e9, 0x3c5141b7f8c5fa9e}, {0x3fea574107688a4a, 0x3fc8e928de886d41, 0x3c42589eb96a6240},
	{0x3fea2c2a87c51ca0, 0x3fc9bb362e7dfb85, 0xbc551439c1ff83e7}, {0x3fea01a01a01a01a, 0x3fca8becfc882f19, 0xbc5a8c37918c39eb},
	{0x3fe9d79f176b682d, 0x3fcb5b519e8fb5a6, 0xbc6d5d8023e61e5f}, {0x3fe9ae24ea5510da, 0x3fcc2968558c18c2, 0x3c36108e3ae024ac},
	{0x3fe9852f0d8ec0ff, 0x3fccf6354e09c5dd, 0x3c6339a07d55b696}, {0x3fe95cbb0be377ae, 0x3fcdc1bca0abec7b, 0x3c5c698a33316dfb},
	{0x3fe934c67f9b2ce6, 0x3fce8c0252aa5a60, 0xbc3dc074737f9135}, {0x3fe90d4f120190d5, 0x3fcf550a564b7b37, 0xbc613a09202fe73d},
	{0x3fe8e6527af1373f, 0x3fd00e6c45ad501d, 0xbc63b9568ff6fead}, {0x3fe8bfce8062ff3a, 0x3fd071b85fcd590d, 0x3c608b83fcbdef40},
	{0x3fe899c0f601899c, 0x3fd0d46b579ab74b, 0x3c721f640e1e5ec9}, {0x3fe87427bcc092b9, 0x3fd136870293a8b0, 0x3c686cc531dba494},
	{0x3fe84f00c2780614, 0x3fd1980d2dd4236f, 0xbc702c2e4f1b2eb9}, {0x3fe82a4a0182a4a0, 0x3fd1f8ff9e48a2f3, 0xbc693fbf3418960d},
	{0x3fe8060180601806, 0x3fd2596010df763a, 0xbc49eed8ae0ebd3c}, {0x3fe7e225515a4f1d, 0x3fd2b9303ab89d25, 0xbc585ad7f614ab51},
	{0x3fe7beb3922e017c, 0x3fd31871c9544185, 0xbc6ea3598981366f}, {0x3fe79baa6bb6398b, 0x3fd3772662bfd85c, 0x3c602a7589fba088},
	{0x3fe77908119ac60d, 0x3fd3d54fa5c1f710, 0x3c553668e578d9cd}, {0x3fe756cac201756d, 0x3fd432ef2a04e813, 0xbc683262e2b59206},
}
