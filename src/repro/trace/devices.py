"""Device and user-agent catalog for the simulated mobile population.

The analyzer recovers device type, OS and app-vs-browser context from
the ``User-Agent`` header (paper section 4.3), so the trace generator
must emit realistic UA strings for every (OS, device, context)
combination.  App traffic carries runtime fingerprints (Dalvik on
Android, CFNetwork/Darwin on iOS) while browser traffic carries
Chrome/Safari mobile tokens -- the exact signals the paper's UA parser
keys on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

#: Mobile OS market composition.  Android devices are roughly twice the
#: iOS ones, which yields the paper's Figure-8 finding (Android appears
#: in ~2x more RTB auctions) while Figure 9 (per-OS normalised share)
#: stays roughly equal.
OS_SHARES: dict[str, float] = {
    "Android": 0.60,
    "iOS": 0.29,
    "Windows Mobile": 0.07,
    "Other": 0.04,
}

#: Device-class composition within each OS.
DEVICE_TYPE_SHARES: dict[str, float] = {
    "smartphone": 0.82,
    "tablet": 0.18,
}

ANDROID_PHONE_MODELS = ("SM-G920F", "SM-A500FU", "HUAWEI P8", "LG-D855",
                        "Nexus 5", "Moto G")
ANDROID_TABLET_MODELS = ("SM-T530", "Nexus 7", "GT-P5210")
IOS_PHONE_MODELS = ("iPhone6,2", "iPhone7,2", "iPhone8,1", "iPhone5,3")
IOS_TABLET_MODELS = ("iPad4,1", "iPad5,3", "iPad2,5")


@dataclass(frozen=True)
class DeviceProfile:
    """A concrete device a simulated user carries all year."""

    os: str
    device_type: str          # "smartphone" | "tablet"
    model: str
    os_version: str

    # Keyed by the device's fields (a frozen dataclass hashes by value),
    # so equal devices share one string: a weblog row holds a reference,
    # not its own copy.  ~130 device configurations exist.
    @functools.lru_cache(maxsize=512)
    def user_agent(self, is_app: bool) -> str:
        """UA string this device sends for app or mobile-web traffic."""
        if self.os == "Android":
            if is_app:
                return (
                    f"Dalvik/2.1.0 (Linux; U; Android {self.os_version}; "
                    f"{self.model} Build/LRX21T)"
                )
            return (
                f"Mozilla/5.0 (Linux; Android {self.os_version}; {self.model}) "
                f"AppleWebKit/537.36 (KHTML, like Gecko) "
                f"Chrome/46.0.2490.76 Mobile Safari/537.36"
            )
        if self.os == "iOS":
            darwin = "14.0.0" if self.os_version.startswith("8") else "15.0.0"
            if is_app:
                # Many iOS apps embed the device model alongside the
                # CFNetwork/Darwin runtime fingerprint.
                return (
                    f"MobileApp/3.2 ({self.model}; iOS {self.os_version}) "
                    f"CFNetwork/711.3.18 Darwin/{darwin}"
                )
            device_token = "iPad" if self.device_type == "tablet" else "iPhone"
            return (
                f"Mozilla/5.0 ({device_token}; CPU OS "
                f"{self.os_version.replace('.', '_')} like Mac OS X) "
                f"AppleWebKit/600.1.4 (KHTML, like Gecko) Version/8.0 "
                f"Mobile/12B411 Safari/600.1.4"
            )
        if self.os == "Windows Mobile":
            return (
                f"Mozilla/5.0 (Windows Phone {self.os_version}; Android 4.2.1; "
                f"Microsoft; Lumia 640 LTE) AppleWebKit/537.36 (KHTML, like "
                f"Gecko) Chrome/42.0.2311.90 Mobile Safari/537.36 Edge/12.10166"
            )
        return f"Mozilla/5.0 (Mobile; rv:38.0) Gecko/38.0 Firefox/38.0 OtherOS/{self.os_version}"


def sample_os(rng: np.random.Generator) -> str:
    """Draw an OS according to market shares."""
    names = list(OS_SHARES)
    weights = np.array([OS_SHARES[n] for n in names])
    return names[int(rng.choice(len(names), p=weights / weights.sum()))]


def sample_device(rng: np.random.Generator, os_name: str | None = None) -> DeviceProfile:
    """Draw a full device profile (optionally pinning the OS)."""
    if os_name is None:
        os_name = sample_os(rng)
    device_type = (
        "smartphone"
        if rng.random() < DEVICE_TYPE_SHARES["smartphone"]
        else "tablet"
    )
    if os_name == "Android":
        models = ANDROID_TABLET_MODELS if device_type == "tablet" else ANDROID_PHONE_MODELS
        model = str(rng.choice(models))
        version = str(rng.choice(["4.4.4", "5.0.2", "5.1.1", "6.0"]))
    elif os_name == "iOS":
        models = IOS_TABLET_MODELS if device_type == "tablet" else IOS_PHONE_MODELS
        model = str(rng.choice(models))
        version = str(rng.choice(["8.1.3", "8.4", "9.0.2", "9.2"]))
    elif os_name == "Windows Mobile":
        model = "Lumia 640"
        version = str(rng.choice(["8.1", "10.0"]))
        device_type = "smartphone"
    else:
        model = "GenericMobile"
        version = "1.0"
    return DeviceProfile(
        os=os_name, device_type=device_type, model=model, os_version=version
    )
